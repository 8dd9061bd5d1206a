"""Round-by-round simulation of the repeated participation game.

Two run modes:

* ``expected``: winners that are certain are realized; mixed policies grow
  every participant's stake by her exact expected reward.  Fully
  deterministic, no randomness consumed.
* ``sampled``: winners are drawn with a seeded stdlib generator through an
  exact inverse-CDF walk over the participants in rank order.  Rounds whose
  winner distribution is a point mass consume no randomness, so traces stay
  comparable across policies that differ only in degenerate rounds.

Behavior selects the stage solver: ``myopic`` or ``lookahead``.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import (
    ZERO,
    Instance,
    PlayerId,
    RoundRecord,
    ScaledProfile,
    StakeProfile,
    scaled_profile,
)
from .equilibrium import DEFAULT_HORIZON_CAP, LookaheadSolver, RankedProfile, _priced_myopic
from .measures import tau_decentralization_index
from .policies import (
    FixedWinner,
    MuEll,
    MuStar,
    Policy,
    draw_winner,
    point_mass_winner,
    top_type_participant,
)


@dataclass
class Trace:
    instance: Instance
    policy: Policy
    records: List[RoundRecord] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.records)

    def final_stakes(self) -> Dict[PlayerId, Fraction]:
        if not self.records:
            return self.instance.stakes()
        return dict(self.records[-1].stakes_after)


class Runner:
    """Stateful driver: advances one round per step.

    The current stakes are the trace's (``trace.final_stakes()``).  The
    runner also keeps them in the kernel's integer form, a
    :class:`~stakegame.core.ScaledProfile` built once from the initial
    stakes: each round's solve reads it as it is, and the round's payment
    advances it by :meth:`ScaledProfile.plus
    <stakegame.core.ScaledProfile.plus>`, which keeps it equal to
    ``trace.final_stakes()`` in lowest terms.
    """

    def __init__(
        self,
        instance: Instance,
        policy: Policy,
        behavior: str = "myopic",
        mode: str = "expected",
        seed: Optional[int] = None,
        horizon_cap: int = DEFAULT_HORIZON_CAP,
    ):
        if behavior not in ("myopic", "lookahead"):
            raise ValueError(f"unknown behavior {behavior!r}")
        if mode not in ("expected", "sampled"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "sampled" and seed is None:
            raise ValueError("sampled mode requires a seed")
        if horizon_cap < 1:
            raise ValueError("horizon cap must be at least 1")
        self.instance = instance
        self.policy = policy
        self.behavior = behavior
        self.mode = mode
        self.horizon_cap = horizon_cap
        self._rng = random.Random(seed) if mode == "sampled" else None
        # MuEll's shadow: type-favoring play with planning players, kept one
        # round ahead, so its next winner is this run's winner
        self._shadow: Optional[Tuple[LookaheadSolver, Dict[PlayerId, Fraction]]] = None
        if isinstance(policy, MuEll):
            self._shadow = (LookaheadSolver(instance, MuStar(), horizon_cap), instance.stakes())
            self._shadow_step()
        self.trace = Trace(instance, policy)
        self._stakes = scaled_profile(instance.stakes())

    def _shadow_step(self) -> PlayerId:
        """Advance MuEll's shadow one round and return that round's winner.

        The shadow plays ``MuStar()`` in expected mode: the top-type member
        of the lookahead equilibrium wins the whole budget.
        """
        solver, stakes = self._shadow
        winner = top_type_participant(self.instance, solver.solve(stakes))
        stakes[winner] += self.instance.budget
        return winner

    def _solve(
        self, stage: Policy, stakes: StakeProfile | ScaledProfile
    ) -> Tuple[RankedProfile, int]:
        """The round's kernel and equilibrium rank: the set is its suffix r.

        A myopic round goes through the one door of the myopic stage solve,
        :func:`~stakegame.equilibrium._priced_myopic`; a lookahead round
        through :meth:`LookaheadSolver._solve`, which returns the same pair.
        Both take the runner's scaled stakes as they are.
        """
        if self.behavior == "myopic":
            return _priced_myopic(stakes, self.instance, stage)
        # a solver keeps nothing between solves, and MuEll's stage changes
        # every round, so each step gets its own
        return LookaheadSolver(self.instance, stage, self.horizon_cap)._solve(stakes, {})

    def step(self) -> RoundRecord:
        stage = self.policy if self._shadow is None else FixedWinner(self._shadow_step())
        last = self.trace.records[-1] if self.trace.records else None
        before = last.stakes_after if last else self.instance.initial_stakes
        profile, r = self._solve(stage, self._stakes)
        participants = profile.suffix(r)
        d, v = profile.d[r], Fraction(profile.v_scaled[r], profile.v_scale)
        # reusing the last round's equal participants, v and rewards keeps retained traces small
        if last is not None:
            if participants == last.participants:
                participants = last.participants
            if v == last.v:
                v = last.v

        # The record names a point-mass winner, even a fixed winner who sits
        # the round out, whom the rewards rule then pays nothing.  A winner
        # drawn in sampled mode takes the whole budget; otherwise the rule's
        # expected rewards are paid.  A policy that reads stakes reads the
        # kernel's integers, and the draw walks the kernel's ranking.
        dist = stage.distribution(self.instance, profile.stakes, participants)
        winner = point_mass_winner(dist)
        if winner is None and self.mode == "sampled":
            winner = draw_winner(dist, profile.ranking, Fraction(self._rng.random()))
            budget = self.instance.budget
            nums, den = {winner: budget.numerator}, budget.denominator
        else:
            nums, den = stage.rewards(self.instance, profile.stakes, participants)
        rewards = tuple(sorted((pid, Fraction(num, den)) for pid, num in nums.items()))
        if last is not None and rewards == last.rewards:
            rewards = last.rewards
        # the payment advances the integer stakes, and each paid player's
        # pair is read from them; an unpaid player's pair carries over as it is
        after = before
        if nums:
            stakes = self._stakes = self._stakes.plus(nums, den)
            scaled, scale = stakes.nums, stakes.den
            after = tuple(
                (pair[0], Fraction(scaled[pair[0]], scale)) if pair[0] in nums else pair
                for pair in before
            )
        record = RoundRecord(
            round=len(self.trace.records) + 1,
            stakes_before=before,
            participants=participants,
            d=d,
            v=v,
            winner=winner,
            rewards=rewards,
            stakes_after=after,
        )
        self.trace.records.append(record)
        return record

    def run(self, rounds: int) -> Trace:
        """Advance ``rounds`` more rounds (0 gives the trace as it is)."""
        if rounds < 0:
            raise ValueError(f"rounds must be at least 0, got {rounds}")
        for _ in range(rounds):
            self.step()
        return self.trace


def run(
    instance: Instance,
    policy: Policy,
    behavior: str = "myopic",
    *,
    rounds: int,
    mode: str = "expected",
    seed: Optional[int] = None,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
) -> Trace:
    """Simulate ``rounds`` rounds; a negative count raises ValueError."""
    runner = Runner(instance, policy, behavior, mode, seed, horizon_cap)
    return runner.run(rounds)


@dataclass
class PropertyReport:
    """Trajectory-level property monitoring over a finished trace.

    ``recovery_violations`` lists ``(round, d_before, d_after)`` triples where
    the full-profile decentralization index dropped during a round in which
    some previously-participating player was excluded (re-entry rounds are
    outside the excluded player's segment).  ``conservation_violations``
    lists rounds whose paid rewards total neither zero nor the budget.
    """

    rounds_checked: int = 0
    exclusion_rounds: int = 0
    recovery_violations: List[Tuple[int, int, int]] = field(default_factory=list)
    conservation_violations: List[int] = field(default_factory=list)

    @property
    def good_recovery(self) -> bool:
        return not self.recovery_violations

    @property
    def ok(self) -> bool:
        return self.good_recovery and not self.conservation_violations


def monitor_properties(trace: Trace) -> PropertyReport:
    """Check recovery monotonicity and budget conservation on a trace."""
    tau = trace.instance.tau_threshold
    report = PropertyReport()
    excluded: set = set()
    prev_participants: Optional[frozenset] = None
    for rec in trace.records:
        report.rounds_checked += 1
        excluded -= rec.participants
        if prev_participants is not None:
            excluded |= prev_participants - rec.participants
        if excluded:
            report.exclusion_rounds += 1
            d_before = tau_decentralization_index([s for _, s in rec.stakes_before], tau)
            d_after = tau_decentralization_index([s for _, s in rec.stakes_after], tau)
            if d_after < d_before:
                report.recovery_violations.append((rec.round, d_before, d_after))
        paid = sum(r for _, r in rec.rewards)
        if paid != 0 and paid != trace.instance.budget:
            report.conservation_violations.append(rec.round)
        prev_participants = rec.participants
    return report


def trace_rows(trace: Trace) -> List[List[str]]:
    """Header plus one row per round; every number rendered as an exact rational."""
    ids = sorted(trace.instance.stakes())
    header = (
        ["round"]
        + [f"stake_{pid}" for pid in ids]
        + ["participants", "d", "v", "winner"]
        + [f"reward_{pid}" for pid in ids]
    )
    rows = [header]
    for rec in trace.records:
        before = dict(rec.stakes_before)
        rewards = dict(rec.rewards)
        rows.append(
            [str(rec.round)]
            + [str(before[pid]) for pid in ids]
            + [
                ",".join(str(pid) for pid in sorted(rec.participants)),
                str(rec.d),
                str(rec.v),
                "" if rec.winner is None else str(rec.winner),
            ]
            + [str(rewards.get(pid, ZERO)) for pid in ids]
        )
    return rows


def write_trace(trace: Trace, path: str) -> None:
    """Write a trace as CSV; loads back losslessly because values are rationals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(trace_rows(trace))
