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

from .core import ONE, ZERO, Instance, PlayerId, RoundRecord
from .equilibrium import LookaheadSolver, myopic_equilibrium, stage_value
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


PairTuple = Tuple[Tuple[PlayerId, Fraction], ...]


@dataclass
class Trace:
    instance: Instance
    policy: Policy
    behavior: str
    mode: str
    seed: Optional[int]
    records: List[RoundRecord] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.records)

    def final_stakes(self) -> Dict[PlayerId, Fraction]:
        if not self.records:
            return self.instance.stakes()
        return dict(self.records[-1].stakes_after)


def _shared(
    values: Dict[PlayerId, Fraction], previous: Optional[PairTuple]
) -> PairTuple:
    """``values`` as sorted (id, value) pairs, reusing equal pairs of ``previous``.

    A trace keeps every round, so consecutive records share what did not
    change: the whole tuple when nothing did, else each unchanged pair.
    """
    fresh = tuple(sorted(values.items()))
    if previous is None or len(previous) != len(fresh):
        return fresh
    if fresh == previous:
        return previous
    return tuple(old if old == new else new for old, new in zip(previous, fresh))


class MuEllShadow:
    """Shadow type-favoring trajectory with lookahead players, one round ahead.

    Initialized from the instance's initial stakes and advanced to round 1 at
    construction; each :meth:`next_winner` call plays one further shadow round
    and returns its winner, which is the real run's winner for the previous
    round number.  Calls must be serialized per run.
    """

    def __init__(self, instance: Instance, horizon_cap: int = 50):
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


class Runner:
    """Stateful driver: holds current stakes, advances one round per step."""

    def __init__(
        self,
        instance: Instance,
        policy: Policy,
        behavior: str = "myopic",
        mode: str = "expected",
        seed: Optional[int] = None,
        horizon_cap: int = 50,
    ):
        if behavior not in ("myopic", "lookahead"):
            raise ValueError(f"unknown behavior {behavior!r}")
        if mode not in ("expected", "sampled"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "sampled" and seed is None:
            raise ValueError("sampled mode requires a seed")
        self.instance = instance
        self.policy = policy
        self.behavior = behavior
        self.mode = mode
        self.seed = seed
        self.horizon_cap = horizon_cap
        self._rng = random.Random(seed) if mode == "sampled" else None
        self._shadow = MuEllShadow(instance, horizon_cap) if isinstance(policy, MuEll) else None
        self.stakes: Dict[PlayerId, Fraction] = instance.stakes()
        self.round = 0
        self.trace = Trace(instance, policy, behavior, mode, seed)

    def _participants(self, stage: Policy) -> frozenset:
        if self.behavior == "myopic":
            return myopic_equilibrium(self.stakes, self.instance, stage)
        # a solver keeps nothing between solves, and MuEll's stage changes
        # every round, so each step gets its own
        return LookaheadSolver(self.instance, stage, self.horizon_cap).solve(self.stakes)

    def step(self) -> RoundRecord:
        self.round += 1
        stage = self.policy if self._shadow is None else FixedWinner(self._shadow.next_winner())
        last = self.trace.records[-1] if self.trace.records else None
        before = _shared(
            self.stakes, last.stakes_after if last else self.instance.initial_stakes
        )
        participants = self._participants(stage)
        if last is not None and participants == last.participants:
            participants = last.participants
        d, v = stage_value(self.instance, self.stakes, participants)

        # A fixed winner who sits the round out is still the certain winner
        # the record names; the payout pays nobody.
        dist = stage.distribution(self.instance, self.stakes, participants)
        winner = point_mass_winner(dist)
        if winner is None and self.mode == "sampled":
            winner = draw_winner(dist, self.stakes, Fraction(self._rng.random()))
            dist = {winner: ONE}
        rewards = dict.fromkeys(self.stakes, ZERO)
        rewards.update(stage.payout(self.instance, participants, dist))

        self.stakes = {
            pid: s + rewards[pid] if rewards[pid] else s for pid, s in self.stakes.items()
        }
        record = RoundRecord(
            round=self.round,
            stakes_before=before,
            participants=participants,
            d=d,
            v=v,
            winner=winner,
            rewards=_shared(rewards, last and last.rewards),
            stakes_after=_shared(self.stakes, before),
        )
        self.trace.records.append(record)
        return record

    def run(self, rounds: int) -> Trace:
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
    horizon_cap: int = 50,
) -> Trace:
    """Simulate ``rounds`` rounds."""
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
        excluded -= set(rec.participants)
        if prev_participants is not None:
            excluded |= set(prev_participants) - set(rec.participants)
        if excluded:
            report.exclusion_rounds += 1
            d_before = tau_decentralization_index(dict(rec.stakes_before).values(), tau)
            d_after = tau_decentralization_index(dict(rec.stakes_after).values(), tau)
            if d_after < d_before:
                report.recovery_violations.append((rec.round, d_before, d_after))
        paid = sum(dict(rec.rewards).values())
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
            + [str(rewards[pid]) for pid in ids]
        )
    return rows


def write_trace(trace: Trace, path: str) -> None:
    """Write a trace as CSV; loads back losslessly because values are rationals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(trace_rows(trace))
