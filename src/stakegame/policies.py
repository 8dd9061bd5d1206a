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
a member's expected reward B_i(Q), on which the equilibrium logic is built,
and ``payout`` the rewards paid when the winner is drawn from a distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Collection, Dict, Iterable, Optional

from .core import ONE, ZERO, Instance, PlayerId, StakeProfile, rank


Distribution = Dict[PlayerId, Fraction]


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
        top: Optional[PlayerId] = None,
    ) -> Fraction:
        """Expected reward of a member i of the participant set.

        ``top`` is the set's top-type participant when the caller knows it
        (the solvers read it from their suffix kernel); MuStar skips a scan.
        """
        return instance.budget * self.distribution(instance, stakes, participants).get(i, ZERO)


@dataclass(frozen=True)
class MuAlpha(_WinnerTakesAll):
    alpha: Fraction

    def distribution(
        self, instance: Instance, stakes: StakeProfile, participants: Collection[PlayerId]
    ) -> Distribution:
        weights = {
            pid: self.alpha * instance.player(pid).type_ + (1 - self.alpha) * stakes[pid]
            for pid in participants
        }
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("virtual stakes sum to zero; distribution undefined")
        return {pid: w / total for pid, w in weights.items()}

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
        dist = {
            pid: type_favoring_share(self.epsilon, size, False) for pid in participants if pid != top
        }
        dist[top] = type_favoring_share(self.epsilon, size, True)
        return dist

    def member_budget(
        self,
        instance: Instance,
        stakes: StakeProfile,
        i: PlayerId,
        participants: Collection[PlayerId],
        top: Optional[PlayerId] = None,
    ) -> Fraction:
        if top is None:
            top = top_type_participant(instance, participants)
        return instance.budget * type_favoring_share(self.epsilon, len(participants), i == top)

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
        top: Optional[PlayerId] = None,
    ) -> Fraction:
        return instance.budget / len(participants)

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

    distribution = member_budget = payout = _unresolved

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

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "fixed_winner", "winner": self.winner}


Policy = MuAlpha | MuStar | MuAll | MuEll | FixedWinner  # not typing.Union: see core.ValueFunction


def top_type_participant(instance: Instance, participants: Iterable[PlayerId]) -> PlayerId:
    """The participant with the largest type; ties broken by smallest id."""
    types = instance.types()
    best = None
    for pid in participants:
        if best is None or types[pid] > types[best] or (types[pid] == types[best] and pid < best):
            best = pid
    if best is None:
        raise ValueError("empty participant set")
    return best


def type_favoring_share(epsilon: Fraction, size: int, is_top: bool) -> Fraction:
    """Winning probability under the type-favoring rule in a set of ``size``.

    The top-type participant wins with probability ``1 - epsilon`` and the
    others split ``epsilon`` evenly; a lone participant, or epsilon 0, makes
    the top a certain winner.
    """
    if size == 1 or epsilon == 0:
        return ONE if is_top else ZERO
    return 1 - epsilon if is_top else epsilon / (size - 1)


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


class MuEllShadow:
    """Shadow type-favoring trajectory with lookahead players, one round ahead.

    Initialized from the instance's initial stakes and advanced to round 1 at
    construction; each :meth:`next_winner` call plays one further shadow round
    and returns its winner, which is the real run's winner for the previous
    round number.  Calls must be serialized per run.
    """

    def __init__(self, instance: Instance, horizon_cap: int = 50):
        from .equilibrium import LookaheadSolver  # deferred: avoids a module cycle

        self._instance = instance
        self._solver = LookaheadSolver(instance, MuStar(), horizon_cap)
        self.stakes: Dict[PlayerId, Fraction] = instance.stakes()
        self.next_winner()

    def next_winner(self) -> PlayerId:
        """Advance the shadow one round and return that round's winner."""
        participants = self._solver.solve(self.stakes)
        winner = top_type_participant(self._instance, participants)
        self.stakes[winner] += self._instance.budget
        return winner
