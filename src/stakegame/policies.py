"""The four monetary policies: winner distributions and budget allocations.

* ``MuAlpha(alpha)``   -- winner proportional to the virtual stake
  ``alpha * type + (1 - alpha) * stake``; winner takes the whole budget.
* ``MuStar(epsilon)``  -- the type-favoring policy: the highest-type
  participant wins (ties by smallest id).  ``epsilon`` is the explicit
  "negligible" mixing mass spread uniformly over the other participants;
  the default 0 makes the policy deterministic.
* ``MuAll``            -- highest type wins, but every participant receives
  an equal share of the budget.
* ``MuEll(horizon_cap)`` -- simulates foresighted play: the winner at round
  t is whoever a standalone type-favoring run with lookahead players would
  crown at round t+1.  Resolved per round through a shadow trajectory; for
  single-round computations the resolved form is ``FixedWinner``.

``expected_budget`` is the expectation B_i(Q) of player i's reward for a
hypothetical participant set Q; the equilibrium logic is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Dict, Iterable, Optional

from .core import ONE, ZERO, Instance, PlayerId, StakeProfile, rank


@dataclass(frozen=True)
class MuAlpha:
    alpha: Fraction


@dataclass(frozen=True)
class MuStar:
    epsilon: Fraction = ZERO


@dataclass(frozen=True)
class MuAll:
    pass


@dataclass(frozen=True)
class MuEll:
    horizon_cap: int = 50


@dataclass(frozen=True)
class FixedWinner:
    """Single-round stage view of MuEll once the shadow winner is known.

    The winner does not depend on who participates; a non-participating
    winner simply leaves the round's budget unallocated.
    """

    winner: PlayerId


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
) -> Dict[PlayerId, Fraction]:
    """Exact probability distribution of the winner over the participants."""
    if not participants:
        raise ValueError("empty participant set")
    if isinstance(policy, MuAlpha):
        weights = {
            pid: policy.alpha * instance.player(pid).type_ + (1 - policy.alpha) * stakes[pid]
            for pid in participants
        }
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("virtual stakes sum to zero; distribution undefined")
        return {pid: w / total for pid, w in weights.items()}
    if isinstance(policy, (MuStar, MuAll)):
        epsilon = policy.epsilon if isinstance(policy, MuStar) else ZERO
        top = top_type_participant(instance, participants)
        size = len(participants)
        dist = {
            pid: type_favoring_share(epsilon, size, False) for pid in participants if pid != top
        }
        dist[top] = type_favoring_share(epsilon, size, True)
        return dist
    if isinstance(policy, FixedWinner):
        if policy.winner not in participants:
            raise ValueError(f"fixed winner {policy.winner} is not participating")
        return {pid: Fraction(1) if pid == policy.winner else ZERO for pid in participants}
    if isinstance(policy, MuEll):
        raise TypeError("MuEll needs its shadow trajectory; resolve it to FixedWinner first")
    raise TypeError(f"unknown policy {policy!r}")


def budget_allocation(
    policy: Policy,
    instance: Instance,
    participants: frozenset,
    winner: PlayerId,
) -> Dict[PlayerId, Fraction]:
    """Realized rewards given the drawn winner.  Totals exactly the budget."""
    if winner not in participants:
        raise ValueError(f"winner {winner} is not participating")
    if isinstance(policy, MuAll):
        share = instance.budget / len(participants)
        return {pid: share for pid in participants}
    rewards = {pid: ZERO for pid in participants}
    rewards[winner] = instance.budget
    return rewards


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
    return member_budget(policy, instance, stakes, i, participants)


def member_budget(
    policy: Policy,
    instance: Instance,
    stakes: StakeProfile,
    i: PlayerId,
    participants: Collection[PlayerId],
    top: Optional[PlayerId] = None,
) -> Fraction:
    """Expected reward B_i(Q) of a member i of Q.

    ``top`` is Q's top-type participant when the caller already knows it
    (the solvers read it from their suffix kernel); it spares the
    type-favoring policies a scan of Q.
    """
    if isinstance(policy, MuAll):
        return instance.budget / len(participants)
    if isinstance(policy, FixedWinner):
        return instance.budget if i == policy.winner else ZERO
    if isinstance(policy, MuStar):
        if top is None:
            top = top_type_participant(instance, participants)
        return instance.budget * type_favoring_share(policy.epsilon, len(participants), i == top)
    dist = winner_distribution(policy, instance, stakes, participants)
    return instance.budget * dist[i]


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
    if not participants or (
        isinstance(policy, FixedWinner) and policy.winner not in participants
    ):
        return rewards
    if isinstance(policy, MuAll):
        share = instance.budget / len(participants)
        for pid in participants:
            rewards[pid] = share
        return rewards
    for pid, p in winner_distribution(policy, instance, stakes, participants).items():
        if p:
            rewards[pid] = instance.budget * p
    return rewards


def point_mass_winner(dist: Dict[PlayerId, Fraction]) -> Optional[PlayerId]:
    """The certain winner of a distribution, or None if it is genuinely mixed."""
    for pid, p in dist.items():
        if p == 1:
            return pid
    return None


def draw_winner(
    dist: Dict[PlayerId, Fraction],
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
        self._policy = MuStar()
        self._solver = LookaheadSolver(instance, self._policy, horizon_cap)
        self.stakes: Dict[PlayerId, Fraction] = instance.stakes()
        self.round = 0
        self._advance()

    def _advance(self) -> PlayerId:
        participants = self._solver.solve(self.stakes)
        winner = top_type_participant(self._instance, participants)
        self.stakes[winner] += self._instance.budget
        self.round += 1
        return winner

    def next_winner(self) -> PlayerId:
        """Advance the shadow one round and return that round's winner."""
        return self._advance()


def stage_policy(policy: Policy, shadow: Optional[MuEllShadow]) -> Policy:
    """Resolve MuEll to its per-round FixedWinner form; other policies pass through."""
    if isinstance(policy, MuEll):
        if shadow is None:
            raise ValueError("MuEll requires a shadow trajectory")
        return FixedWinner(shadow.next_winner())
    return policy
