"""The five monetary policies, each holding its own stage rule.

* ``MuAlpha(alpha)``   -- winner proportional to the virtual stake
  ``alpha * type + (1 - alpha) * stake``; winner takes the whole budget.
* ``MuStar(epsilon)``  -- the type-favoring policy: the highest-type
  participant wins (ties by smallest id).  ``epsilon`` in [0, 1] is the
  explicit "negligible" mixing mass spread uniformly over the other
  participants; the default 0 makes the policy deterministic.
* ``MuAll``            -- highest type wins, but every participant receives
  an equal share of the budget.
* ``MuEll``            -- simulates foresighted play: the winner at round
  t is whoever a standalone type-favoring run with lookahead players would
  crown at round t+1.  Resolved per round through a shadow trajectory to
  its stage form ``FixedWinner(winner)``.

A stage policy has three faces.  ``distribution`` is the winner's exact
distribution over a participant set (players who cannot win may be left
out), ``member_budget`` a member's expected reward B_i(Q) in any set Q, and
``rewards`` every participant's expected reward in one set: the integer rule
by which stakes advance, and by which the suffix kernel
(:meth:`RankedProfile.leaders <stakegame.equilibrium.RankedProfile.leaders>`)
prices each suffix's leader, one ``rewards`` call on that suffix.  The
``stakes`` each of them gets is a stake map or the kernel's integer form
(:class:`~stakegame.core.ScaledProfile`); only ``MuAlpha`` reads it, through
:func:`~stakegame.core.scaled_profile`, which takes either.  ``rewards``
works on integers, built from the budget's, epsilon's, alpha's, the types'
and the stakes' numerators and denominators, so no ``Fraction`` is formed
per reward: it gives ``(nums, den)``, an int for each paid participant over
one positive denominator, leaving out the participants whose winning chance
or share is zero.

``rewards`` is the one rule that pays a round; there is no separate payout
step.  A recovery walk adds its ints to the walk's scaled stakes by
:meth:`ScaledProfile.plus <stakegame.core.ScaledProfile.plus>`, and
:meth:`~stakegame.engine.Runner.step` adds them the same way to the
runner's own scaled stakes, building a ``Fraction`` only for each paid
player's record entries; a winner drawn in sampled mode takes the whole
budget instead.  ``distribution`` names the recorded point-mass winner
and feeds the draw, :func:`draw_winner`, which walks the round's ranking.
``distribution`` and ``member_budget`` return ``Fraction``s.  Every
winner-take-all policy (``MuAlpha``, ``MuStar``, ``FixedWinner``) takes its
``member_budget`` from its ``distribution``, so ``MuStar.distribution`` is
the one ``Fraction`` statement of the type-favoring split, and property
tests check every policy's integer ``rewards`` against
:func:`expected_budget`.

The top-type rule (largest type, ties to the smallest id, compared on the
positions of :meth:`Instance.type_order`) lives in
:func:`top_type_participant` alone.  The virtual-stake lottery lives in
:mod:`stakegame.core`, beside :func:`virtual_stake`, and the analysis in
:mod:`stakegame.virtualstake` shares it: ``MuAlpha.distribution`` is
:func:`virtual_stake_lottery`, and ``MuAlpha.rewards`` takes its weights
from :func:`virtual_stake_weights`, which sums and checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Collection, Dict, Iterable, Optional, Sequence, Tuple

from .core import (
    ONE,
    ZERO,
    Instance,
    PlayerId,
    StakeProfile,
    virtual_stake_lottery,
    virtual_stake_weights,
)


Distribution = Dict[PlayerId, Fraction]
# The expected reward of each paid participant of one set, as ints ``nums``
# (id -> int) over one denominator ``den`` > 0, not necessarily in lowest
# terms; a participant whose winning chance or share is zero is left out.
Rewards = Tuple[Dict[PlayerId, int], int]


class _WinnerTakesAll:
    """The whole budget goes to the winner; a member's budget follows from that."""

    def member_budget(
        self,
        instance: Instance,
        stakes: StakeProfile,
        i: PlayerId,
        participants: Collection[PlayerId],
    ) -> Fraction:
        """Expected reward of a member i of the participant set: the budget times her chance.

        A certain winner's reward is the budget and a certain loser's the
        zero chance itself, so only a mixed chance forms the product.
        """
        chance = self.distribution(instance, stakes, participants).get(i, ZERO)
        return chance and (instance.budget if chance == 1 else instance.budget * chance)


@dataclass(frozen=True)
class MuAlpha(_WinnerTakesAll):
    alpha: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    def distribution(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Distribution:
        return virtual_stake_lottery(self.alpha, instance.types(), stakes, participants)

    def rewards(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Rewards:
        """Each participant's weight over the set's total: ``b * W`` over ``c * T``.

        A participant whose virtual stake is zero is left out.  Each call
        checks its own set's weights, by :func:`virtual_stake_weights`.
        """
        weights, total, _ = virtual_stake_weights(
            self.alpha, instance.types(), stakes, participants
        )
        b, c = instance.budget.numerator, instance.budget.denominator
        return {pid: b * w for pid, w in zip(participants, weights) if w}, c * total


@dataclass(frozen=True)
class MuStar(_WinnerTakesAll):
    epsilon: Fraction = ZERO

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    def distribution(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Distribution:
        """The type-favoring rule: the top type wins with 1 - epsilon, the others split epsilon.

        A lone participant, or epsilon 0, makes the top type a certain
        winner: the distribution is ``{top: 1}`` and leaves the others out,
        as ``MuAll``'s and ``FixedWinner``'s do.  ``stakes``, a stake map or
        the kernel's ``ScaledProfile``, goes unread: only ``MuAlpha`` reads
        it, through ``scaled_profile``.
        """
        top = top_type_participant(instance, participants)
        size = len(participants)
        if size == 1 or not self.epsilon:
            return {top: ONE}
        dist = dict.fromkeys(participants, self.epsilon / (size - 1))
        dist[top] = 1 - self.epsilon
        return dist

    def rewards(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Rewards:
        """The shares of :meth:`distribution` for one set of m, over ``c * q * (m - 1)``.

        The others get ``b * p`` each and the top ``b * (q - p) * (m - 1)``,
        left out at epsilon 1; a lone participant, or epsilon 0, pays the top
        ``b`` over ``c`` and nobody else.
        """
        top = top_type_participant(instance, participants)
        b, c = instance.budget.numerator, instance.budget.denominator
        p, q = self.epsilon.numerator, self.epsilon.denominator
        size = len(participants)
        if size == 1 or not p:
            return {top: b}, c
        nums = dict.fromkeys(participants, b * p)
        if p == q:
            del nums[top]
        else:
            nums[top] = b * (q - p) * (size - 1)
        return nums, c * q * (size - 1)


@dataclass(frozen=True)
class MuAll:
    def distribution(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Distribution:
        return {top_type_participant(instance, participants): ONE}

    def member_budget(
        self,
        instance: Instance,
        stakes: StakeProfile,
        i: PlayerId,
        participants: Collection[PlayerId],
    ) -> Fraction:
        return instance.budget / len(participants)

    def rewards(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Rewards:
        """An equal share for every participant, whoever wins."""
        b, c = instance.budget.numerator, instance.budget.denominator
        return dict.fromkeys(participants, b), c * len(participants)


@dataclass(frozen=True)
class MuEll:
    """No stage rule of its own: each round resolves it to a FixedWinner."""

    def _unresolved(self, *args: Any) -> Any:
        raise TypeError("MuEll needs its shadow trajectory; resolve it to FixedWinner first")

    distribution = member_budget = rewards = _unresolved


@dataclass(frozen=True)
class FixedWinner(_WinnerTakesAll):
    """Single-round stage view of MuEll once the shadow winner is known.

    The winner does not depend on who participates, so the distribution is
    a point mass on the winner even when the winner sits out; a
    non-participating winner simply leaves the round's budget unallocated.
    """

    winner: PlayerId

    def distribution(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Distribution:
        return {self.winner: ONE}

    def rewards(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Rewards:
        """The whole budget to the winner; nobody is paid while she sits out."""
        if self.winner not in participants:
            return {}, 1
        return {self.winner: instance.budget.numerator}, instance.budget.denominator


Policy = MuAlpha | MuStar | MuAll | MuEll | FixedWinner  # not typing.Union: see core.ValueFunction


def top_type_participant(instance: Instance, participants: Iterable[PlayerId]) -> PlayerId:
    """The participant with the largest type, ties to the smallest id (least ``type_order``)."""
    best = min(participants, key=instance.type_order().__getitem__, default=None)
    if best is None:
        raise ValueError("empty participant set")
    return best


def winner_distribution(
    policy: Policy,
    instance: Instance,
    stakes: StakeProfile,
    participants: frozenset,
) -> Distribution:
    """Exact probability distribution of the winner over the participants."""
    if not participants:
        raise ValueError("empty participant set")
    dist = policy.distribution(instance, stakes, participants)
    absent = dist.keys() - participants
    if absent:
        raise ValueError(f"winner {min(absent)} is not participating")
    return dist


def expected_budget(
    policy: Policy,
    instance: Instance,
    stakes: StakeProfile,
    i: PlayerId,
    participants: frozenset,
) -> Fraction:
    """Expected reward B_i(Q) of player i when the participant set is Q."""
    if i not in participants:
        return ZERO
    return policy.member_budget(instance, stakes, i, participants)


def expected_rewards(
    policy: Policy,
    instance: Instance,
    stakes: StakeProfile,
    participants: frozenset,
) -> Dict[PlayerId, Fraction]:
    """:func:`expected_budget` for every player (non-participants receive 0).

    The ``Fraction`` member rule, player by player: it does not use the
    policy's integer ``rewards`` rule, so it is that rule's reference.  An
    empty participant set, or a fixed winner who sits out, pays nobody.
    """
    return {pid: expected_budget(policy, instance, stakes, pid, participants) for pid in stakes}


def point_mass_winner(dist: Distribution) -> Optional[PlayerId]:
    """The certain winner of a distribution, or None if it is genuinely mixed."""
    for pid, p in dist.items():
        if p == 1:
            return pid
    return None


def draw_winner(
    dist: Distribution,
    ranking: Sequence[PlayerId],
    u: Fraction,
) -> PlayerId:
    """Inverse-CDF draw: accumulate probabilities over the participants in ``ranking`` order.

    ``ranking`` is the round's ranking, every player in rank order; those
    ``dist`` leaves out are skipped.
    """
    running = ZERO
    ordered = [pid for pid in ranking if pid in dist]
    for pid in ordered:
        running += dist[pid]
        if u < running:
            return pid
    return ordered[-1]  # guards against u == 1 style edge cases
