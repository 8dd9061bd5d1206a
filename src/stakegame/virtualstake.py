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
:func:`~stakegame.core.virtual_stake_lottery`, and the dynamics walk the
integer weights of :func:`~stakegame.core.virtual_stake_weights`, which
rejects a non-positive total or a negative virtual stake with the policy's
messages.

The expected dynamics run on those integers.  :func:`expected_step`,
:func:`check_invariance` and :func:`sampled_win_frequencies` enter one
walk: the stakes are ints over one common denominator, brought back to
lowest terms by one gcd per round, and the weights are ints on the same
scale, recomputed from the stakes each round.  The sampler takes only the
walk's first state, its weights, total and growth, and advances them by
the realized wins instead.  The virtual stakes are checked once, by the
walk's entry call to ``virtual_stake_weights``, since no weight ever
falls.  ``check_invariance`` compares its identities by cross-multiplying
those ints.  What its weight identity can catch: the weight total is
linear in the stake total, the types being fixed, so for alpha < 1 it
breaks together with the stake identity, and at alpha = 1 it cannot move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Dict, Iterator, List, Tuple

from .core import (
    PlayerId,
    ScalarLike,
    rank,
    scalar,
    scaled_profile,
    virtual_stake,
    virtual_stake_lottery,
    virtual_stake_weights,
)


@dataclass(frozen=True)
class VirtualStakeState:
    """Snapshot of the interpolated dynamics: alpha, fixed types, current stakes.

    The constructor raises ValueError unless alpha lies in [0, 1], no id
    repeats in ``types`` or ``stakes``, and the two name the same players.
    The stake and weight totals are summed when read.
    """

    alpha: Fraction
    types: Tuple[Tuple[PlayerId, Fraction], ...]
    stakes: Tuple[Tuple[PlayerId, Fraction], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        types, stakes = dict(self.types), dict(self.stakes)
        if len(types) < len(self.types) or len(stakes) < len(self.stakes):
            raise ValueError("player ids are not unique")
        if types.keys() != stakes.keys():
            raise ValueError("types and stakes must cover the same players")

    @property
    def total_stakes(self) -> Fraction:
        return sum(s for _, s in self.stakes)

    @property
    def total_weight(self) -> Fraction:
        return virtual_stake(self.alpha, sum(t for _, t in self.types), self.total_stakes)

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
    """One round of expected dynamics: every stake grows by its own probability.

    The stakes of the state returned are in id order.
    """
    stakes, den, *_ = next(islice(_walk(state), 1, None))
    ids = sorted(pid for pid, _ in state.stakes)
    return VirtualStakeState(
        alpha=state.alpha,
        types=state.types,
        stakes=tuple((pid, Fraction(s, den)) for pid, s in zip(ids, stakes)),
    )


def _step(stakes: List[int], den: int, weights: List[int], total: int) -> Tuple[List[int], int]:
    """The stakes ``stakes / den`` after one expected round, in lowest terms.

    Each stake grows by its probability ``weight / total``; one gcd brings
    the sums back to lowest terms, so the ints stay as small as the
    ``Fraction`` stakes they stand for.
    """
    stakes = [s * total + w * den for s, w in zip(stakes, weights)]
    den *= total
    g = gcd(den, *stakes)
    return [s // g for s in stakes], den // g


def _walk(state: VirtualStakeState) -> Iterator[Tuple[List[int], int, List[int], int, int]]:
    """The expected dynamics from ``state`` on ints, one tuple per round, ``state`` first.

    Each tuple is ``(stakes, den, weights, total, growth)``: the stakes in id
    order as ints over ``den``, in lowest terms; their weights by
    :func:`virtual_stake_weights` and the weights' total; and ``growth``,
    the weight one unit of stake adds.  The weights and ``growth`` share one
    scale, ``den`` times a constant, and the entry weights are
    :func:`virtual_stake_weights`' own ints: a weight is
    ``base * den + unit * stake``, with ``base`` the type's part and ``unit``
    the weight of one stake numerator.  Every next state comes from
    :func:`_step`, and its weights from its stakes.  The virtual stakes are
    checked once, by the entry call to :func:`virtual_stake_weights`: no
    weight ever falls, so none can turn negative.
    """
    types = dict(state.types)
    ids = sorted(types)
    scaled = scaled_profile(state.stake_dict())
    weights, total, growth = virtual_stake_weights(state.alpha, types, scaled, ids)
    stakes, den = [scaled.nums[pid] for pid in ids], scaled.den
    unit = growth // den
    base = [(w - unit * s) // den for w, s in zip(weights, stakes)]
    while True:
        yield stakes, den, weights, total, growth
        stakes, den = _step(stakes, den, weights, total)
        weights = [b * den + unit * s for b, s in zip(base, stakes)]
        total, growth = sum(weights), unit * den


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
    per round and the weight total by 1 - alpha.  The dynamics run on the
    ints of :func:`_walk`, and each identity is compared by
    cross-multiplying them, which is exact rational equality, so a single
    break is a real counterexample.  Each next state comes from the
    dynamics, never from the identity it is checked against.

    The weight total is ``alpha`` times the fixed type total plus
    ``1 - alpha`` times the stake total.  So for alpha < 1 the weight
    identity breaks exactly when the stake identity does, and at alpha = 1
    the weight total cannot move: the weight check finds no break that the
    stake check misses, and is kept for the report's shape.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    report = InvarianceReport(steps=steps)
    walk = _walk(state)
    stakes, den, reference, ref_total, growth = next(walk)
    held, total = sum(stakes), ref_total
    for step, (stakes, nden, weights, ntotal, ngrowth) in zip(range(1, steps + 1), walk):
        # the weights checked here are the ones the next step advances by
        if any(w * ref_total != r * ntotal for w, r in zip(weights, reference)):
            report.probability_breaks.append(step)
        nheld = sum(stakes)
        if nheld * den != (held + den) * nden:
            report.stake_recurrence_breaks.append(step)
        if ntotal * den != (total + growth) * nden:
            report.weight_recurrence_breaks.append(step)
        den, held, total, growth = nden, nheld, ntotal, ngrowth
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
    weights, their total and the growth are the first state of the expected
    dynamics' walk, so they are :func:`virtual_stake_weights`' own ints, the
    one integer weighting ``MuAlpha`` prices its stages with, checked there
    once, and with u = num / u_den the test is ``num * W < S * u_den``.  A
    win adds 1 to the winner's stake, so her weight and W both grow by
    1 - alpha; neither a weight nor W ever falls, so that one check covers
    every round.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    _, _, weights, total, growth = next(_walk(state))
    order = sorted(pid for pid, _ in state.types)
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
