"""Sybil splits: enumeration, recovery splits, and the proofness condition.

A player may split herself into parts whose stakes and types sum to at most
her own (each part keeps type >= 1).  Each part is an identity that
participates, so each pays the owner's per-round cost.  The winner-take-all
type-favoring policy resists this when, for every profile harmful to a
player, the best recovery split she can build has a top part that still
loses the type comparison against the next player; the all-pay policy fails
trivially because every extra identity earns an extra equal share.

Real-valued splits cannot be searched exhaustively, so everything here works
on a granularity grid: the condition check is exact at grid resolution and
the gain search is a falsifier, not a prover.  Every public function that
takes a stake profile raises ValueError unless it stakes exactly the
instance's players; the searches call private unchecked workers per split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Instance, Player, PlayerId, ScalarLike, StakeProfile, scalar, scaled_profile
from .equilibrium import _priced_myopic, is_harmful
from .policies import MuEll, MuStar, Policy


@dataclass(frozen=True)
class SybilSplit:
    """A partition of one player into (stake, type) parts.

    ``parts`` are in the order :func:`enumerate_splits` builds them: by
    descending type, then descending stake.  That order is canonical, so two
    splits with the same parts compare equal, and :attr:`top_part` relies on
    it.  A split built by hand must list its parts in that order.
    """

    owner: PlayerId
    parts: Tuple[Tuple[Fraction, Fraction], ...]

    @property
    def top_part(self) -> Tuple[Fraction, Fraction]:
        """The part with the largest type; ties go to the larger stake."""
        return self.parts[0]


def enumerate_splits(
    owner: PlayerId,
    stakes: StakeProfile,
    types: Dict[PlayerId, Fraction],
    granularity: ScalarLike,
    max_parts: int,
    full_stake: bool = False,
    limit: int = 500_000,
) -> List[SybilSplit]:
    """All splits on the granularity grid, deduplicated up to part order.

    Part stakes are positive multiples of the granularity; part types are
    1 plus a multiple of it (so the minimum type is always on the grid).
    Stakes sum to at most the owner's stake, or exactly to it with
    ``full_stake=True``; types sum to at most the owner's type.  Raises when
    the grid yields more than ``limit`` splits.
    """
    g = scalar(granularity)
    if g <= 0:
        raise ValueError("granularity must be positive")
    if max_parts < 1:
        raise ValueError("max_parts must be at least 1")
    tau = types[owner]
    if tau < 1:
        raise ValueError(f"owner type {tau} is below 1")

    # the granularity, the owner's stake and her type as ints over their lcm
    scaled = scaled_profile({0: g, 1: stakes[owner], 2: tau})
    unit = scaled.den
    step, stake_units, type_units = scaled.nums.values()
    # grid index k holds stake (k + 1) * step and type unit + k * step
    stake_grid = [Fraction(u, unit) for u in range(step, stake_units + 1, step)]
    type_grid = [Fraction(u, unit) for u in range(unit, type_units + 1, step)]

    results: List[SybilSplit] = []
    parts: List[Tuple[Fraction, Fraction]] = []

    # Parts are generated in non-increasing (type, stake) order, which makes
    # every split canonical by construction: (ti, si) are the grid indices of
    # the last part, and no later part exceeds them.
    def extend(stake_left: int, type_left: int, ti: int, si: int) -> None:
        if parts:
            if not full_stake or stake_left == 0:
                results.append(SybilSplit(owner=owner, parts=tuple(parts)))
                if len(results) > limit:
                    raise ValueError(
                        f"split grid exceeds {limit} entries; coarsen the granularity"
                    )
        if len(parts) == max_parts:
            return
        fits = stake_left // step - 1  # the largest stake index within stake_left
        for tj in range(min(ti, (type_left - unit) // step), -1, -1):
            t = type_grid[tj]
            for sk in range(min(si, fits) if tj == ti else fits, -1, -1):
                parts.append((stake_grid[sk], t))
                extend(stake_left - (sk + 1) * step, type_left - unit - tj * step, tj, sk)
                parts.pop()

    extend(stake_units, type_units, len(type_grid) - 1, len(stake_grid) - 1)
    return results


def _stage(policy: Policy) -> Policy:
    # The lookahead-simulating policy pays like the type-favoring one within
    # a single stage, which is all the sybil definitions look at.
    return MuStar() if isinstance(policy, MuEll) else policy


def split_instance(
    instance: Instance, stakes: StakeProfile, split: SybilSplit
) -> Tuple[Instance, StakeProfile, List[PlayerId]]:
    """Replace the owner by the split's parts; parts get fresh ids and her cost.

    Each part is built as a :class:`~stakegame.core.Player` of its own: a
    fresh id, the part's type and the owner's cost.  The split game is
    :meth:`Instance.with_players <stakegame.core.Instance.with_players>` of
    the instance, built by the constructor: it keeps the value function, so
    it shares the owner's token-value table, and a search's splits fill one
    table between them.
    """
    owner = instance.player(split.owner)
    first = max(instance.ids) + 1
    part_ids = list(range(first, first + len(split.parts)))
    parts = [Player(pid, t, owner.cost) for pid, (_, t) in zip(part_ids, split.parts)]
    new_stakes = {pid: s for pid, s in stakes.items() if pid != split.owner}
    new_stakes.update(zip(part_ids, (s for s, _ in split.parts)))
    new_instance = instance.with_players(
        tuple(p for p in instance.players if p.id != split.owner) + tuple(parts),
        tuple(sorted(new_stakes.items())),
    )
    return new_instance, new_stakes, part_ids


def profile_harmful_for(
    i: PlayerId, stakes: StakeProfile, instance: Instance, policy: Policy
) -> bool:
    """Harmfulness of the full-participation profile for player i."""
    instance.check_profile(stakes)
    return _profile_harmful_for(i, stakes, instance, policy)


def _profile_harmful_for(
    i: PlayerId, stakes: StakeProfile, instance: Instance, policy: Policy
) -> bool:
    everyone = frozenset(stakes)
    return is_harmful(i, everyone, stakes, instance, _stage(policy)).harmful


def _is_recovery_sybils(
    split: SybilSplit,
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
) -> bool:
    # a split profile of a checked profile stakes exactly the split's players
    new_instance, new_stakes, part_ids = split_instance(instance, stakes, split)
    # parts are in descending (type, stake) order, so the first is the top part
    return not _profile_harmful_for(part_ids[0], new_stakes, new_instance, policy)


def preferred_recovery_sybils(
    owner: PlayerId,
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
    granularity: ScalarLike,
    max_parts: int,
) -> SybilSplit:
    """The recovery split maximizing the top part's type (stake breaks ties).

    Searches full-stake splits only: a part that silently discards stake is
    not a partition of the player.  :func:`enumerate_splits` yields splits
    grouped by top part in descending (type, stake) order, so the groups are
    tested in that order and the first one holding a recovering split
    decides, by the largest ``parts``: the max by (top type, top stake,
    parts) over all recovering splits, without testing the groups below.
    Raises when the owner's stake is not a positive multiple of the
    granularity (no full-stake split exists) and when no grid split recovers.
    """
    instance.check_profile(stakes)
    candidates = enumerate_splits(
        owner, stakes, instance.types(), granularity, max_parts, full_stake=True
    )
    if not candidates:
        raise ValueError(
            f"stake {stakes[owner]} of player {owner} is not a positive multiple of "
            f"the granularity {granularity}, so no full-stake split exists"
        )
    for _, group in groupby(candidates, key=attrgetter("top_part")):
        recovering = [
            split for split in group if _is_recovery_sybils(split, stakes, instance, policy)
        ]
        if recovering:
            return max(recovering, key=attrgetter("parts"))
    raise ValueError(
        f"no recovery split for player {owner} on the granularity {granularity} grid"
    )


@dataclass
class SybilConditionEntry:
    player: PlayerId
    stakes: Tuple[Tuple[PlayerId, Fraction], ...]
    preferred: SybilSplit
    next_player: Optional[PlayerId]
    satisfied: bool


@dataclass
class SybilConditionReport:
    checked: int = 0
    entries: List[SybilConditionEntry] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    @property
    def violations(self) -> List[SybilConditionEntry]:
        return [e for e in self.entries if not e.satisfied]


def sybil_proofness_condition(
    instance: Instance,
    policy: Policy,
    granularity: ScalarLike,
    max_parts: int,
    profiles: Optional[Sequence[StakeProfile]] = None,
) -> SybilConditionReport:
    """Check the sufficient proofness condition on a set of stake profiles.

    For every supplied profile (default: just the instance's initial one) and
    every player the profile is harmful for, the preferred recovery split's
    top part must lose the type comparison (stake on ties) against the next
    player in type order.  A player with no successor passes vacuously; the
    quantification over all profiles is approximated by the supplied list.
    """
    if profiles is None:
        profiles = [instance.stakes()]
    for k, profile in enumerate(profiles):
        instance.check_profile(profile, f"stake profile {k}")
    order = instance.type_order()
    by_type = sorted(order, key=order.__getitem__)
    report = SybilConditionReport()
    for profile in profiles:
        for idx, pid in enumerate(by_type):
            report.checked += 1
            if not _profile_harmful_for(pid, profile, instance, policy):
                continue
            preferred = preferred_recovery_sybils(
                pid, profile, instance, policy, granularity, max_parts
            )
            nxt = by_type[idx + 1] if idx + 1 < len(by_type) else None
            if nxt is None:
                satisfied = True
            else:
                top_stake, top_type = preferred.top_part
                nxt_type = instance.player(nxt).type_
                satisfied = top_type < nxt_type or (
                    top_type == nxt_type and top_stake < profile[nxt]
                )
            report.entries.append(
                SybilConditionEntry(
                    player=pid,
                    stakes=tuple(sorted(profile.items())),
                    preferred=preferred,
                    next_player=nxt,
                    satisfied=satisfied,
                )
            )
    return report


def _equilibrium_utility(
    ids: Sequence[PlayerId], stakes: StakeProfile, instance: Instance, stage: Policy
) -> Fraction:
    """The total stage utility of ``ids`` at the profile's myopic equilibrium.

    Every id is priced at the one token value of that equilibrium.  The
    unsplit owner is the one-id case; a split's parts are the many-id one.
    One kernel pass, the myopic stage solve's (:func:`_priced_myopic
    <stakegame.equilibrium._priced_myopic>`), finds the equilibrium and its
    value ``v_num / v_den`` (from the instance's token-value table, which a
    split game shares with its owner's), and one ``rewards`` call on the
    equilibrium set gives each member's reward as ``paid[pid] / paid_den``:
    the round's own integer rule, which property tests check against
    :func:`expected_budget <stakegame.policies.expected_budget>`.  With the
    stakes as the kernel's own ints ``scaled.nums`` over ``scaled.den``, the
    ids' value is the sum of
    ``(scaled.nums[pid] * paid_den + paid[pid] * scaled.den) * v_num`` over
    ``scaled.den * paid_den * v_den``, a non-member's reward being 0; each
    member's cost is then subtracted on integers, and one ``Fraction`` is
    built.
    """
    profile, r = _priced_myopic(stakes, instance, stage)
    scaled, eq = profile.stakes, profile.suffix(r)
    v_num, v_den = profile.v_scaled[r], profile.v_scale
    paid, paid_den = stage.rewards(instance, scaled, eq)
    num = v_num * sum(
        scaled.nums[pid] * paid_den + paid.get(pid, 0) * scaled.den for pid in ids
    )
    den = scaled.den * paid_den * v_den
    for cost in (instance.player(pid).cost for pid in eq.intersection(ids)):
        num, den = num * cost.denominator - cost.numerator * den, den * cost.denominator
    return Fraction(num, den)


def sybil_gain(
    split: SybilSplit,
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
) -> Fraction:
    """Utility change from splitting: parts' total minus the owner's original.

    Both sides are stage utilities at the respective myopic equilibrium, so a
    positive value exhibits a profitable split.  The identity split gains
    exactly zero.
    """
    instance.check_profile(stakes)
    stage = _stage(policy)
    original = _equilibrium_utility([split.owner], stakes, instance, stage)
    new_instance, new_stakes, part_ids = split_instance(instance, stakes, split)
    return _equilibrium_utility(part_ids, new_stakes, new_instance, stage) - original


def max_sybil_gain(
    owner: PlayerId,
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
    granularity: ScalarLike,
    max_parts: int,
) -> Tuple[Fraction, SybilSplit]:
    """Best gain over every grid split (stake may be discarded here).

    Equal to the first split reaching the maximum of :func:`sybil_gain` over
    the grid; the owner's unsplit utility is computed once for the search.
    """
    instance.check_profile(stakes)
    splits = enumerate_splits(owner, stakes, instance.types(), granularity, max_parts)
    if not splits:
        raise ValueError("no splits on the grid")
    stage = _stage(policy)
    original = _equilibrium_utility([owner], stakes, instance, stage)
    gains = (
        (_equilibrium_utility(part_ids, new_stakes, new_instance, stage) - original, split)
        for split in splits
        for new_instance, new_stakes, part_ids in [split_instance(instance, stakes, split)]
    )
    return max(gains, key=itemgetter(0))
