"""The five monetary policies, each holding its own stage rule.

* ``MuAlpha(alpha)``   -- winner proportional to the virtual stake
  ``alpha * type + (1 - alpha) * stake``; winner takes the whole budget.
* ``MuStar(epsilon)``  -- the type-favoring policy: the highest-type
  participant wins (ties by smallest id).  ``epsilon`` is the explicit
  "negligible" mixing mass spread uniformly over the other participants;
  the default 0 makes the policy deterministic.
* ``MuAll``            -- highest type wins, but every participant receives
  an equal share of the budget.
* ``MuEll``            -- simulates foresighted play: the winner at round
  t is whoever a standalone type-favoring run with lookahead players would
  crown at round t+1.  Resolved per round through a shadow trajectory to
  its stage form ``FixedWinner(winner)``.

A stage policy's ``distribution`` is the winner's exact distribution over a
participant set (players who cannot win may be left out), ``member_budget``
a member's expected reward B_i(Q) in any set Q, ``leader_budgets`` the same
reward for the leader of every suffix of a ranking in one O(n) pass, on
which the suffix solvers are built, and ``payout`` the rewards paid when the
winner is drawn from a distribution.

The top-type rule (largest type, ties to the smallest id, compared on the
positions of :meth:`Instance.type_order`) lives here alone: in
:func:`top_type_participant` for one set, and in ``MuStar.leader_budgets``
for every suffix of a ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Collection, Dict, Iterable, List, Optional, Sequence

from .core import ONE, ZERO, Instance, PlayerId, StakeProfile, rank, virtual_stake


Distribution = Dict[PlayerId, Fraction]
# Indexed by rank r (1-based, entry 0 unused) of a ranking: the expected reward
# B of suffix r's leader (the player at rank r) in suffix r, the set of the
# players at rank r or below.
LeaderBudgets = List[Fraction]


class _WinnerTakesAll:
    """The whole budget goes to the winner; a member's budget follows from that."""

    def payout(
        self, instance: Instance, participants: Collection[PlayerId], dist: Distribution
    ) -> Dict[PlayerId, Fraction]:
        """Budget times winning probability for each participant; zeros left out."""
        return {pid: instance.budget * p for pid, p in dist.items() if p and pid in participants}

    def member_budget(
        self,
        instance: Instance,
        stakes: StakeProfile,
        i: PlayerId,
        participants: Collection[PlayerId],
    ) -> Fraction:
        """Expected reward of a member i of the participant set."""
        return instance.budget * self.distribution(instance, stakes, participants).get(i, ZERO)


def _positive(total: Fraction) -> Fraction:
    """A sum of virtual stakes, which must be positive to normalize by."""
    if total <= 0:
        raise ValueError("virtual stakes sum to zero; distribution undefined")
    return total


@dataclass(frozen=True)
class MuAlpha(_WinnerTakesAll):
    alpha: Fraction

    def distribution(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Distribution:
        weights = {
            pid: virtual_stake(self.alpha, instance.player(pid).type_, stakes[pid])
            for pid in participants
        }
        total = _positive(sum(weights.values()))
        return {pid: w / total for pid, w in weights.items()}

    def leader_budgets(
        self, instance: Instance, stakes: StakeProfile, ranking: Sequence[PlayerId]
    ) -> LeaderBudgets:
        """Each leader's weight over a running suffix total, from the last rank up."""
        budgets = [ZERO] * (len(ranking) + 1)
        total = ZERO
        for r in range(len(ranking), 0, -1):
            pid = ranking[r - 1]
            weight = virtual_stake(self.alpha, instance.player(pid).type_, stakes[pid])
            total += weight
            budgets[r] = instance.budget * (weight / _positive(total))
        return budgets

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "mu_alpha", "alpha": str(self.alpha)}


@dataclass(frozen=True)
class MuStar(_WinnerTakesAll):
    epsilon: Fraction = ZERO

    def distribution(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Distribution:
        top = top_type_participant(instance, participants)
        size = len(participants)
        share = type_favoring_share(self.epsilon, size, False, ONE)
        dist = {pid: share for pid in participants if pid != top}
        dist[top] = type_favoring_share(self.epsilon, size, True, ONE)
        return dist

    def member_budget(
        self,
        instance: Instance,
        stakes: StakeProfile,
        i: PlayerId,
        participants: Collection[PlayerId],
    ) -> Fraction:
        top = top_type_participant(instance, participants)
        return type_favoring_share(self.epsilon, len(participants), i == top, instance.budget)

    def leader_budgets(
        self, instance: Instance, stakes: StakeProfile, ranking: Sequence[PlayerId]
    ) -> LeaderBudgets:
        """Each leader's share, from the last rank up.

        She is her suffix's top type when her ``type_order`` position is the least so far.
        """
        order = instance.type_order()
        n = len(ranking)
        budgets = [ZERO] * (n + 1)
        best = len(order)
        for r in range(n, 0, -1):
            k = order[ranking[r - 1]]
            if k < best:
                best = k
            budgets[r] = type_favoring_share(self.epsilon, n - r + 1, k == best, instance.budget)
        return budgets

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": "mu_star"}
        if self.epsilon:
            out["epsilon"] = str(self.epsilon)
        return out


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

    def leader_budgets(
        self, instance: Instance, stakes: StakeProfile, ranking: Sequence[PlayerId]
    ) -> LeaderBudgets:
        n = len(ranking)
        return [ZERO] + [instance.budget / (n - r + 1) for r in range(1, n + 1)]

    def payout(
        self, instance: Instance, participants: Collection[PlayerId], dist: Distribution
    ) -> Dict[PlayerId, Fraction]:
        """An equal share for every participant, whoever wins."""
        return dict.fromkeys(participants, instance.budget / len(participants))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "mu_all"}


@dataclass(frozen=True)
class MuEll:
    """No stage rule of its own: each round resolves it to a FixedWinner."""

    def _unresolved(self, *args: Any) -> Any:
        raise TypeError("MuEll needs its shadow trajectory; resolve it to FixedWinner first")

    distribution = member_budget = leader_budgets = payout = _unresolved

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "mu_ell"}


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

    def leader_budgets(
        self, instance: Instance, stakes: StakeProfile, ranking: Sequence[PlayerId]
    ) -> LeaderBudgets:
        return [ZERO] + [instance.budget if pid == self.winner else ZERO for pid in ranking]

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "fixed_winner", "winner": self.winner}


Policy = MuAlpha | MuStar | MuAll | MuEll | FixedWinner  # not typing.Union: see core.ValueFunction


def top_type_participant(instance: Instance, participants: Iterable[PlayerId]) -> PlayerId:
    """The participant with the largest type, ties to the smallest id (least ``type_order``)."""
    best = min(participants, key=instance.type_order().__getitem__, default=None)
    if best is None:
        raise ValueError("empty participant set")
    return best


def type_favoring_share(epsilon: Fraction, size: int, is_top: bool, whole: Fraction) -> Fraction:
    """A participant's part of ``whole`` under the type-favoring rule in a set of ``size``.

    ``whole`` is 1 for a winning probability and the budget for an expected
    reward.  The top-type participant gets ``1 - epsilon`` of it and the
    others split ``epsilon`` evenly; a lone participant, or epsilon 0, gives
    the top all of it, with no product to form.
    """
    if size == 1 or not epsilon:
        return whole if is_top else ZERO
    return whole * (1 - epsilon) if is_top else whole * epsilon / (size - 1)


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
    """Expected reward for every player (non-participants receive 0).

    The winner distribution is built once for all players.  An empty
    participant set, or a fixed winner who sits out, pays nobody.
    """
    rewards = dict.fromkeys(stakes, ZERO)
    if participants:
        dist = policy.distribution(instance, stakes, participants)
        rewards.update(policy.payout(instance, participants, dist))
    return rewards


def point_mass_winner(dist: Distribution) -> Optional[PlayerId]:
    """The certain winner of a distribution, or None if it is genuinely mixed."""
    for pid, p in dist.items():
        if p == 1:
            return pid
    return None


def draw_winner(
    dist: Distribution,
    stakes: StakeProfile,
    u: Fraction,
) -> PlayerId:
    """Inverse-CDF draw: accumulate probabilities over participants in rank order."""
    running = ZERO
    ordered = [pid for pid in rank(stakes) if pid in dist]
    for pid in ordered:
        running += dist[pid]
        if u < running:
            return pid
    return ordered[-1]  # guards against u == 1 style edge cases
