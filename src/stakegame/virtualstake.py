"""The virtual-stake policy family: exact invariance and its consequences.

With selection weight ``p_i = alpha * type_i + (1 - alpha) * stake_i`` and
the unit budget paid to the winner, the expected dynamics fix the selection
probabilities at their round-1 values forever: stakes grow by exactly their
own weight, so each round rescales all weights by the same factor.  That
invariance is the reason interpolating between type- and stake-proportional
selection cannot shake off a large incumbent stake; the counterexample
constructor below, :func:`incumbent_gap_state`, makes this quantitative.

All of this assumes full participation, as the interpolating policy gives no
abstention incentive to analyze.

The lottery itself lives in :mod:`stakegame.core`, shared with
:class:`~stakegame.policies.MuAlpha`: :func:`selection_probabilities` is
:func:`~stakegame.core.virtual_stake_lottery`, and the sampler walks the
integer weights of :func:`~stakegame.core.virtual_stake_weights`.  Both
reject a non-positive total or a negative virtual stake with the policy's
messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .core import (
    PlayerId,
    ScalarLike,
    check_virtual_stakes,
    rank,
    scalar,
    virtual_stake,
    virtual_stake_lottery,
    virtual_stake_weights,
)


@dataclass(frozen=True)
class VirtualStakeState:
    """Snapshot of the interpolated dynamics: alpha, fixed types, current stakes.

    The constructor raises ValueError unless alpha lies in [0, 1], no id
    repeats in ``types`` or ``stakes``, and the two name the same players.
    The stake and weight totals are summed once, when the state is built.
    """

    alpha: Fraction
    types: Tuple[Tuple[PlayerId, Fraction], ...]
    stakes: Tuple[Tuple[PlayerId, Fraction], ...]
    total_stakes: Fraction = field(init=False, compare=False, repr=False)
    total_weight: Fraction = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        types, stakes = dict(self.types), dict(self.stakes)
        if len(types) < len(self.types) or len(stakes) < len(self.stakes):
            raise ValueError("player ids are not unique")
        if types.keys() != stakes.keys():
            raise ValueError("types and stakes must cover the same players")
        total = sum(stakes.values())
        weight = virtual_stake(self.alpha, sum(types.values()), total)
        object.__setattr__(self, "total_stakes", total)
        object.__setattr__(self, "total_weight", weight)

    @staticmethod
    def build(
        alpha: ScalarLike,
        types: Dict[PlayerId, ScalarLike],
        stakes: Dict[PlayerId, ScalarLike],
    ) -> "VirtualStakeState":
        return VirtualStakeState(
            alpha=scalar(alpha),
            types=tuple(sorted((pid, scalar(t)) for pid, t in types.items())),
            stakes=tuple(sorted((pid, scalar(s)) for pid, s in stakes.items())),
        )

    def stake_dict(self) -> Dict[PlayerId, Fraction]:
        return dict(self.stakes)


def selection_probabilities(state: VirtualStakeState) -> Dict[PlayerId, Fraction]:
    """w_i = p_i / W by :func:`virtual_stake_lottery`, each type paired with its stake by id."""
    types = dict(state.types)
    return virtual_stake_lottery(state.alpha, types, state.stake_dict(), types)


def expected_step(state: VirtualStakeState) -> VirtualStakeState:
    """One round of expected dynamics: every stake grows by its own probability."""
    return _advance(state, selection_probabilities(state))


def _advance(state: VirtualStakeState, probs: Dict[PlayerId, Fraction]) -> VirtualStakeState:
    """:func:`expected_step` with the state's selection probabilities known."""
    stakes = state.stake_dict()
    return VirtualStakeState(
        alpha=state.alpha,
        types=state.types,
        stakes=tuple(sorted((pid, stakes[pid] + probs[pid]) for pid in stakes)),
    )


@dataclass
class InvarianceReport:
    steps: int = 0
    probability_breaks: List[int] = field(default_factory=list)
    stake_recurrence_breaks: List[int] = field(default_factory=list)
    weight_recurrence_breaks: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.probability_breaks
            or self.stake_recurrence_breaks
            or self.weight_recurrence_breaks
        )


def check_invariance(state: VirtualStakeState, steps: int) -> InvarianceReport:
    """Iterate expected dynamics and assert the three exact identities per step.

    Probabilities stay at their initial values; the stake total grows by 1
    per round and the weight total by 1 - alpha.  Everything is compared for
    exact rational equality, so a single break is a real counterexample.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    report = InvarianceReport(steps=steps)
    reference = probs = selection_probabilities(state)
    current = state
    for step in range(1, steps + 1):
        nxt = _advance(current, probs)
        # the vector checked here is the one the next step advances by
        probs = selection_probabilities(nxt)
        if probs != reference:
            report.probability_breaks.append(step)
        if nxt.total_stakes != current.total_stakes + 1:
            report.stake_recurrence_breaks.append(step)
        if nxt.total_weight != current.total_weight + (1 - state.alpha):
            report.weight_recurrence_breaks.append(step)
        current = nxt
    return report


def incumbent_gap_state(
    alpha: ScalarLike,
    types: Dict[PlayerId, ScalarLike],
    M: ScalarLike,
) -> VirtualStakeState:
    """Initial stakes making the top type's long-run share non-dominant.

    The top-type player starts at stake 1; every other player i starts at
    ``alpha * (type_top - type_i) / (1 - alpha) + M``.  That stake exactly
    compensates the type advantage plus an M-sized head start, so for large M
    the lower types' growth rates exceed the top type's and her stake becomes
    a vanishing fraction of the total.  Requires alpha < 1.
    """
    a = scalar(alpha)
    if not 0 <= a < 1:
        raise ValueError("construction needs alpha in [0, 1)")
    m = scalar(M)
    if m <= 0:
        raise ValueError("M must be positive")
    ts = {pid: scalar(t) for pid, t in types.items()}
    if len(ts) < 2:
        raise ValueError("need at least two players")
    top = rank(ts)[0]
    stakes = {
        pid: Fraction(1) if pid == top else a * (ts[top] - ts[pid]) / (1 - a) + m
        for pid in ts
    }
    return VirtualStakeState.build(a, ts, stakes)


def sampled_win_frequencies(
    state: VirtualStakeState,
    rounds: int,
    seed: int,
) -> Dict[PlayerId, Fraction]:
    """Empirical winner frequencies over sampled rounds with full participation.

    Stakes are updated by the realized unit reward, not the expectation, so
    this is the stochastic process the expected dynamics approximate.  The
    frequencies converge to the round-1 probabilities.

    Each round draws u in [0, 1) and walks the players in id order: the
    winner is the first whose partial weight sum S has u < S / W, W being
    the total weight.  Since W > 0, that is u * W < S, so the walk compares
    with running weights and never divides.  The walk runs on integers: the
    weights and the growth below come from :func:`virtual_stake_weights`,
    the one integer weighting ``MuAlpha`` prices its stages with, and
    with u = num / u_den the test is ``num * W < S * u_den``.  A win adds 1
    to the winner's stake, so her weight and W both grow by 1 - alpha;
    neither a weight nor W ever falls, and checking them once up front
    covers every round.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    types, stakes = dict(state.types), state.stake_dict()
    order = sorted(types)
    weights, growth = virtual_stake_weights(state.alpha, types, stakes, order)
    total = sum(weights)
    check_virtual_stakes(total, weights)
    rng = random.Random(seed)
    wins = [0] * len(order)
    last = len(order) - 1
    for _ in range(rounds):
        num, u_den = rng.random().as_integer_ratio()
        scaled_u = num * total
        running = 0
        winner = last
        for k, weight in enumerate(weights):
            running += weight
            if scaled_u < running * u_den:
                winner = k
                break
        wins[winner] += 1
        weights[winner] += growth
        total += growth
    return {pid: Fraction(count, rounds) for pid, count in zip(order, wins)}
