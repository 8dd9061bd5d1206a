"""The virtual-stake policy family: exact invariance and its consequences.

With selection weight ``p_i = alpha * type_i + (1 - alpha) * stake_i`` and
the unit budget paid to the winner, the expected dynamics fix the selection
probabilities at their round-1 values forever: stakes grow by exactly their
own weight, so each round rescales all weights by the same factor.  That
invariance is the reason interpolating between type- and stake-proportional
selection cannot shake off a large incumbent stake; the counterexample
constructor below makes this quantitative.

All of this assumes full participation, as the interpolating policy gives no
abstention incentive to analyze.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .core import IdentityValue, Instance, Player, PlayerId, ScalarLike, rank, scalar, virtual_stake


@dataclass(frozen=True)
class VirtualStakeState:
    """Snapshot of the interpolated dynamics: alpha, fixed types, current stakes.

    The stake and weight totals are summed once, when the state is built.
    """

    alpha: Fraction
    types: Tuple[Tuple[PlayerId, Fraction], ...]
    stakes: Tuple[Tuple[PlayerId, Fraction], ...]
    total_stakes: Fraction = field(init=False, compare=False, repr=False)
    total_weight: Fraction = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        stakes = sum(s for _, s in self.stakes)
        weight = virtual_stake(self.alpha, sum(t for _, t in self.types), stakes)
        object.__setattr__(self, "total_stakes", stakes)
        object.__setattr__(self, "total_weight", weight)

    @staticmethod
    def build(
        alpha: ScalarLike,
        types: Dict[PlayerId, ScalarLike],
        stakes: Dict[PlayerId, ScalarLike],
    ) -> "VirtualStakeState":
        a = scalar(alpha)
        if not 0 <= a <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {a}")
        if set(types) != set(stakes):
            raise ValueError("types and stakes must cover the same players")
        return VirtualStakeState(
            alpha=a,
            types=tuple(sorted((pid, scalar(t)) for pid, t in types.items())),
            stakes=tuple(sorted((pid, scalar(s)) for pid, s in stakes.items())),
        )

    def stake_dict(self) -> Dict[PlayerId, Fraction]:
        return dict(self.stakes)

    def weights(self) -> Dict[PlayerId, Fraction]:
        s = self.stake_dict()
        return {pid: virtual_stake(self.alpha, t, s[pid]) for pid, t in self.types}


def selection_probabilities(state: VirtualStakeState) -> Dict[PlayerId, Fraction]:
    """w_i = p_i / W; exact, sums to 1."""
    total = state.total_weight
    if total <= 0:
        raise ValueError("total virtual stake must be positive")
    return {pid: p / total for pid, p in state.weights().items()}


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


def theorem6_counterexample(
    alpha: ScalarLike, types: Dict[PlayerId, ScalarLike], M: ScalarLike
) -> Tuple[Instance, VirtualStakeState]:
    """A full game instance on the gap construction, plus its dynamics state.

    The instance has budget 1, tau 1/2 and the identity value function.
    """
    state = incumbent_gap_state(alpha, types, M)
    players = tuple(Player(id=pid, type_=t) for pid, t in state.types)
    instance = Instance.build(
        players=players,
        initial_stakes=state.stake_dict(),
        budget=1,
        tau_threshold=Fraction(1, 2),
        value_function=IdentityValue(),
    )
    return instance, state


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
    with running weights and never divides.  A win adds 1 to the winner's
    stake, so her weight and W both grow by 1 - alpha; W never falls, and
    checking it once up front covers every round.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    start = state.weights()
    order = sorted(start)
    weights = [start[pid] for pid in order]
    total = state.total_weight
    if total <= 0:
        raise ValueError("total virtual stake must be positive")
    growth = 1 - state.alpha
    rng = random.Random(seed)
    wins = [0] * len(order)
    last = len(order) - 1
    for _ in range(rounds):
        scaled_u = Fraction(rng.random()) * total
        running = Fraction(0)
        winner = last
        for k, weight in enumerate(weights):
            running += weight
            if scaled_u < running:
                winner = k
                break
        wins[winner] += 1
        weights[winner] += growth
        total += growth
    return {pid: Fraction(count, rounds) for pid, count in zip(order, wins)}
