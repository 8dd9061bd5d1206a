"""Sybil splits: enumeration, recovery splits, and the proofness condition.

A player may split herself into parts whose stakes and types sum to at most
her own (each part keeps type >= 1).  The winner-take-all type-favoring
policy resists this when, for every profile harmful to a player, the best
recovery split she can build has a top part that still loses the type
comparison against the next player; the all-pay policy fails trivially
because every extra identity earns an extra equal share.

Real-valued splits cannot be searched exhaustively, so everything here works
on a granularity grid: the condition check is exact at grid resolution and
the gain search is a falsifier, not a prover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Instance, Player, PlayerId, ScalarLike, StakeProfile, scalar
from .equilibrium import (
    _priced_utility,
    is_harmful,
    myopic_equilibrium,
    stage_utility,
    stage_value,
)
from .policies import MuEll, MuStar, Policy


@dataclass(frozen=True)
class SybilSplit:
    """A partition of one player into (stake, type) parts.

    Parts are kept sorted by descending type, then descending stake, so two
    splits differing only by part order compare equal.
    """

    owner: PlayerId
    parts: Tuple[Tuple[Fraction, Fraction], ...]

    @property
    def top_part(self) -> Tuple[Fraction, Fraction]:
        """The part with the largest type; ties go to the larger stake."""
        return self.parts[0]


def _sorted_parts(
    parts: Sequence[Tuple[ScalarLike, ScalarLike]]
) -> Tuple[Tuple[Fraction, Fraction], ...]:
    converted = [(scalar(s), scalar(t)) for s, t in parts]
    return tuple(sorted(converted, key=lambda part: (-part[1], -part[0])))


def make_split(owner: PlayerId, parts: Sequence[Tuple[ScalarLike, ScalarLike]]) -> SybilSplit:
    """Validate and normalize a split given as (stake, type) pairs."""
    if not parts:
        raise ValueError("a split needs at least one part")
    normalized = _sorted_parts(parts)
    for s, t in normalized:
        if s <= 0:
            raise ValueError(f"part stake {s} is not positive")
        if t < 1:
            raise ValueError(f"part type {t} is below 1")
    return SybilSplit(owner=owner, parts=normalized)


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
    sigma = stakes[owner]
    tau = types[owner]
    if tau < 1:
        raise ValueError(f"owner type {tau} is below 1")

    stake_grid = []
    s = g
    while s <= sigma:
        stake_grid.append(s)
        s += g
    type_grid = []
    t = Fraction(1)
    while t <= tau:
        type_grid.append(t)
        t += g

    results: List[SybilSplit] = []
    parts: List[Tuple[Fraction, Fraction]] = []

    # Parts are generated in non-increasing (type, stake) order, which makes
    # every split canonical by construction.
    def extend(stake_left: Fraction, type_left: Fraction, start: Tuple[int, int]) -> None:
        if parts:
            if not full_stake or stake_left == 0:
                results.append(SybilSplit(owner=owner, parts=tuple(parts)))
                if len(results) > limit:
                    raise ValueError(
                        f"split grid exceeds {limit} entries; coarsen the granularity"
                    )
        if len(parts) == max_parts:
            return
        for ti in range(start[0], -1, -1):
            t = type_grid[ti]
            if t > type_left:
                continue
            si_start = start[1] if ti == start[0] else len(stake_grid) - 1
            for si in range(si_start, -1, -1):
                s = stake_grid[si]
                if s > stake_left:
                    continue
                parts.append((s, t))
                extend(stake_left - s, type_left - t, (ti, si))
                parts.pop()

    extend(sigma, tau, (len(type_grid) - 1, len(stake_grid) - 1))
    return results


def _stage(policy: Policy) -> Policy:
    # The lookahead-simulating policy pays like the type-favoring one within
    # a single stage, which is all the sybil definitions look at.
    return MuStar() if isinstance(policy, MuEll) else policy


def split_instance(
    instance: Instance, stakes: StakeProfile, split: SybilSplit
) -> Tuple[Instance, StakeProfile, List[PlayerId]]:
    """Replace the owner by the split's parts; parts get fresh ids."""
    next_id = max(instance.ids) + 1
    players = [p for p in instance.players if p.id != split.owner]
    new_stakes = {pid: stakes[pid] for pid in stakes if pid != split.owner}
    part_ids = []
    for s, t in split.parts:
        players.append(Player(id=next_id, type_=t))
        new_stakes[next_id] = s
        part_ids.append(next_id)
        next_id += 1
    new_instance = Instance.build(
        players=players,
        initial_stakes=new_stakes,
        budget=instance.budget,
        tau_threshold=instance.tau_threshold,
        value_function=instance.value_function,
    )
    return new_instance, new_stakes, part_ids


def profile_harmful_for(
    i: PlayerId, stakes: StakeProfile, instance: Instance, policy: Policy
) -> bool:
    """Harmfulness of the full-participation profile for player i."""
    everyone = frozenset(stakes)
    return is_harmful(i, everyone, stakes, instance, _stage(policy)).harmful


def is_recovery_sybils(
    split: SybilSplit,
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
) -> bool:
    """Whether the split profile stops being harmful for the top-type part."""
    new_instance, new_stakes, part_ids = split_instance(instance, stakes, split)
    # parts are in descending (type, stake) order, so the first is the top part
    return not profile_harmful_for(part_ids[0], new_stakes, new_instance, policy)


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
    not a partition of the player.  Raises when no grid split recovers.
    """
    candidates = enumerate_splits(
        owner, stakes, instance.types(), granularity, max_parts, full_stake=True
    )
    best: Optional[SybilSplit] = None
    for split in candidates:
        if not is_recovery_sybils(split, stakes, instance, policy):
            continue
        if best is None:
            best = split
            continue
        cand_key = (split.top_part[1], split.top_part[0], split.parts)
        best_key = (best.top_part[1], best.top_part[0], best.parts)
        if cand_key > best_key:
            best = split
    if best is None:
        raise ValueError(
            f"no recovery split for player {owner} on the granularity {granularity} grid"
        )
    return best


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
    by_type = sorted(
        instance.ids, key=lambda pid: (-instance.player(pid).type_, pid)
    )
    report = SybilConditionReport()
    for profile in profiles:
        for idx, pid in enumerate(by_type):
            report.checked += 1
            if not profile_harmful_for(pid, profile, instance, policy):
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


def _original_utility(
    owner: PlayerId, stakes: StakeProfile, instance: Instance, stage: Policy
) -> Fraction:
    """The owner's stage utility at the unsplit profile's myopic equilibrium."""
    eq = myopic_equilibrium(stakes, instance, stage)
    return stage_utility(instance, stakes, stage, owner, eq)


def _parts_utility(
    split: SybilSplit, stakes: StakeProfile, instance: Instance, stage: Policy
) -> Fraction:
    """The parts' total stage utility at the split profile's myopic equilibrium.

    Every part is priced at the one token value of that equilibrium.
    """
    new_instance, new_stakes, part_ids = split_instance(instance, stakes, split)
    split_eq = myopic_equilibrium(new_stakes, new_instance, stage)
    _, v = stage_value(new_instance, new_stakes, split_eq)
    return sum(
        _priced_utility(new_instance, new_stakes, stage, pid, split_eq, v)
        for pid in part_ids
    )


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
    stage = _stage(policy)
    original = _original_utility(split.owner, stakes, instance, stage)
    return _parts_utility(split, stakes, instance, stage) - original


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
    splits = enumerate_splits(owner, stakes, instance.types(), granularity, max_parts)
    if not splits:
        raise ValueError("no splits on the grid")
    stage = _stage(policy)
    original = _original_utility(owner, stakes, instance, stage)
    best_gain: Optional[Fraction] = None
    best_split: Optional[SybilSplit] = None
    for split in splits:
        gain = _parts_utility(split, stakes, instance, stage) - original
        if best_gain is None or gain > best_gain:
            best_gain, best_split = gain, split
    return best_gain, best_split
