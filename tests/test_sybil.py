from dataclasses import replace
from fractions import Fraction
from typing import List, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stakegame import (
    AffineValue,
    FixedWinner,
    IdentityValue,
    LookaheadSolver,
    MuAll,
    MuAlpha,
    MuEll,
    MuStar,
    Runner,
    TableValue,
    enumerate_splits,
    expected_budget,
    max_sybil_gain,
    myopic_equilibrium,
    preferred_recovery_sybils,
    sybil_gain,
    sybil_proofness_condition,
)
from stakegame.cli import _sybil_fixture
from stakegame.core import scalar
from stakegame.equilibrium import stage_value
from stakegame.sybil import (
    SybilSplit,
    _is_recovery_sybils,
    profile_harmful_for,
    split_instance,
)

from conftest import make_instance


def canonical_split(owner, *parts):
    """A split of ``owner`` from (stake, type) parts listed in canonical order."""
    parts = tuple((Fraction(s), Fraction(t)) for s, t in parts)
    assert list(parts) == sorted(parts, key=lambda part: (-part[1], -part[0]))
    return SybilSplit(owner, parts)


def small_gap_instance(stakes=(3, 1, 1)):
    """Types 3, 5/2, 2: pairwise gaps below 1."""
    return make_instance([Fraction(3), Fraction(5, 2), Fraction(2)], list(stakes))


class TestEnumeration:
    def test_basic_grid(self):
        splits = enumerate_splits(1, {1: Fraction(2)}, {1: Fraction(2)}, 1, 2)
        parts = {s.parts for s in splits}
        assert ((Fraction(2), Fraction(2)),) in parts
        assert ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))) in parts

    def test_minimum_type_even_split_present(self):
        # the always-existing witness: tau parts of minimum type, equal stake
        splits = enumerate_splits(1, {1: Fraction(3)}, {1: Fraction(3)}, 1, 3)
        witness = ((Fraction(1), Fraction(1)),) * 3
        assert witness in {s.parts for s in splits}

    def test_unit_owner_identity_only(self):
        splits = enumerate_splits(1, {1: Fraction(1)}, {1: Fraction(1)}, 1, 3)
        assert [s.parts for s in splits] == [((Fraction(1), Fraction(1)),)]

    def test_budgets_respected(self):
        owner_stake, owner_type = Fraction(3), Fraction(5, 2)
        splits = enumerate_splits(
            1, {1: owner_stake}, {1: owner_type}, Fraction(1, 2), 3
        )
        for s in splits:
            assert sum(p[0] for p in s.parts) <= owner_stake
            assert sum(p[1] for p in s.parts) <= owner_type
            assert all(p[1] >= 1 for p in s.parts)

    def test_full_stake_filter(self):
        splits = enumerate_splits(
            1, {1: Fraction(2)}, {1: Fraction(2)}, 1, 2, full_stake=True
        )
        assert all(sum(p[0] for p in s.parts) == 2 for s in splits)

    def test_dedup_up_to_order(self):
        splits = enumerate_splits(1, {1: Fraction(2)}, {1: Fraction(3)}, 1, 2)
        assert len({s.parts for s in splits}) == len(splits)

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            enumerate_splits(
                1, {1: Fraction(6)}, {1: Fraction(6)}, Fraction(1, 8), 5, limit=100
            )

    def test_top_part_is_the_largest_type_then_stake(self):
        # top_part reads parts[0]: the enumeration builds the canonical order
        splits = []
        for full_stake in (False, True):
            splits += enumerate_splits(
                1, {1: Fraction(3)}, {1: Fraction(4)}, Fraction(1, 2), 3, full_stake=full_stake
            )
        for split in splits:
            assert split.top_part == max(split.parts, key=lambda part: (part[1], part[0]))

    def test_splits_share_the_grid_fractions(self):
        splits = enumerate_splits(
            1, {1: Fraction(3)}, {1: Fraction(5, 2)}, Fraction(1, 2), 3
        )
        objects = {id(x) for split in splits for part in split.parts for x in part}
        # 6 stakes (1/2 .. 3) and 4 types (1 .. 5/2), each built once
        assert len(objects) == 10


class TestRecoverySplits:
    def test_identity_split_stays_harmful(self):
        inst = small_gap_instance()
        identity = canonical_split(1, (3, 3))
        assert not _is_recovery_sybils(identity, inst.stakes(), inst, MuEll())

    def test_even_split_recovers(self):
        inst = small_gap_instance()
        even = canonical_split(1, (1, 1), (1, 1), (1, 1))
        assert _is_recovery_sybils(even, inst.stakes(), inst, MuEll())

    def test_preferred_max_type(self):
        # recovering demands shedding at least a unit of stake off the top
        # part, which caps its type at 2 on the quarter grid
        inst = small_gap_instance()
        pref = preferred_recovery_sybils(1, inst.stakes(), inst, MuEll(), Fraction(1, 4), 3)
        assert pref.top_part[1] == 2
        assert _is_recovery_sybils(pref, inst.stakes(), inst, MuEll())

    def test_off_grid_stake_is_named_as_such(self):
        # no full-stake split exists when 2 does not divide the stake 3
        inst = small_gap_instance()
        with pytest.raises(
            ValueError,
            match=r"^stake 3 of player 1 is not a positive multiple of the granularity 2, "
                  r"so no full-stake split exists$",
        ):
            preferred_recovery_sybils(1, inst.stakes(), inst, MuEll(), 2, 3)

    def test_no_recovering_split(self):
        # one part holds the whole stake, so every grid split stays harmful
        inst = small_gap_instance()
        with pytest.raises(
            ValueError, match=r"^no recovery split for player 1 on the granularity 1/4 grid$"
        ):
            preferred_recovery_sybils(1, inst.stakes(), inst, MuEll(), Fraction(1, 4), 1)

    def test_finer_grid_no_worse(self):
        inst = small_gap_instance()
        coarse = preferred_recovery_sybils(1, inst.stakes(), inst, MuEll(), Fraction(1, 2), 3)
        fine = preferred_recovery_sybils(1, inst.stakes(), inst, MuEll(), Fraction(1, 4), 3)
        assert fine.top_part[1] >= coarse.top_part[1]


class TestProofnessCondition:
    def test_small_gaps_satisfied(self):
        inst = small_gap_instance()
        report = sybil_proofness_condition(
            inst, MuEll(), Fraction(1, 4), 3,
            profiles=[{1: Fraction(3), 2: Fraction(1), 3: Fraction(1)}],
        )
        assert report.satisfied
        assert len(report.entries) == 1
        assert report.entries[0].player == 1

    def test_large_gap_violated(self):
        inst = make_instance([5, 2, 1], [3, 1, 1])
        report = sybil_proofness_condition(
            inst, MuEll(), Fraction(1, 4), 3, profiles=[inst.stakes()]
        )
        assert not report.satisfied
        entry = report.violations[0]
        assert entry.player == 1
        assert entry.preferred.top_part[1] > 2

    def test_last_in_type_order_passes_vacuously(self):
        # only the lowest type, player 3, is harmed; nobody follows it
        inst = make_instance([4, 3, 2], [1, 1, 3])
        report = sybil_proofness_condition(inst, MuStar(), Fraction(1, 2), 3)
        assert report.checked == 3
        [entry] = report.entries
        assert (entry.player, entry.next_player, entry.satisfied) == (3, None, True)
        assert report.satisfied

    @pytest.mark.parametrize(
        "inst, profile, policy, missing",
        [
            # player 3, the first the check reaches, has no stake
            (_sybil_fixture(), {1: Fraction(3), 2: Fraction(1)}, MuEll(), r"\[3\]"),
            # player 1 is harmed, and player 2, whom her top part is compared
            # with, has no stake
            (make_instance([4, 3, 3, 2], [1, 1, 1, 1]),
             {1: Fraction(2), 3: Fraction(1, 2), 4: Fraction(1, 2)}, MuStar(), r"\[2\]"),
        ],
        ids=["fixture", "next in type order"],
    )
    def test_profile_missing_a_player(self, inst, profile, policy, missing):
        with pytest.raises(
            ValueError, match=rf"^stake profile 1 has no stake for players {missing}$"
        ):
            sybil_proofness_condition(
                inst, policy, Fraction(1, 2), 2, profiles=[inst.stakes(), profile]
            )

    @pytest.mark.parametrize("profile, problem", [
        ({1: 3, 2: 1, 3: 1, 4: 1}, "names unknown players [4]"),
        ({1: 3, 4: 1, 5: 2},
         "has no stake for players [2, 3] and names unknown players [4, 5]"),
    ], ids=["unknown", "missing and unknown"])
    def test_profile_naming_an_unknown_player(self, profile, problem):
        inst = _sybil_fixture()
        with pytest.raises(ValueError) as exc:
            sybil_proofness_condition(
                inst, MuEll(), Fraction(1, 4), 3, profiles=[inst.stakes(), profile]
            )
        assert str(exc.value) == f"stake profile 1 {problem}"

    def test_harm_read_on_a_valid_profile(self):
        # the profile of test_last_in_type_order_passes_vacuously
        inst = make_instance([4, 3, 2], [1, 1, 3])
        harmed = [pid for pid in (1, 2, 3)
                  if profile_harmful_for(pid, inst.stakes(), inst, MuStar())]
        assert harmed == [3]

    def test_single_player_vacuous(self):
        inst = make_instance([3], [5])
        report = sybil_proofness_condition(inst, MuEll(), 1, 2)
        assert report.satisfied


class TestGain:
    def test_identity_split_zero(self):
        inst = small_gap_instance(stakes=(1, 1, 1))
        identity = canonical_split(1, (1, 3))
        assert sybil_gain(identity, inst.stakes(), inst, MuEll()) == 0

    @pytest.mark.parametrize("policy", [MuStar(), MuAll()])
    def test_identity_split_of_a_costly_owner_gains_zero(self, policy):
        # the part participates as the owner did, so it pays her cost
        inst = make_instance([3, 2, 1], [3, 3, 3], costs=[Fraction(1, 10), 0, 0])
        identity = canonical_split(1, (3, 3))
        assert sybil_gain(identity, inst.stakes(), inst, policy) == 0

    def test_all_pay_two_parts_gain_extra_share(self):
        inst = make_instance([3, 2, 1], [1, 1, 1])
        half = (Fraction(1, 2), Fraction(3, 2))
        halves = canonical_split(1, half, half)
        # two quarter-shares of the budget instead of one third, at value 2
        assert sybil_gain(halves, inst.stakes(), inst, MuAll()) == Fraction(1, 3)

    def test_all_pay_positive_gain_found(self):
        inst = make_instance([3, 2, 1], [1, 1, 1])
        gain, _ = max_sybil_gain(1, inst.stakes(), inst, MuAll(), Fraction(1, 4), 3)
        assert gain > 0

    def test_no_grid_split_raises(self):
        # a stake of 1/2 holds no positive multiple of the granularity 1
        inst = make_instance([3, 2, 1], [Fraction(1, 2), 1, 1])
        with pytest.raises(ValueError, match="^no splits on the grid$"):
            max_sybil_gain(1, inst.stakes(), inst, MuAll(), 1, 3)

    def test_satisfied_condition_caps_gain(self):
        inst = small_gap_instance(stakes=(1, 1, 1))
        for pid in inst.ids:
            gain, _ = max_sybil_gain(pid, inst.stakes(), inst, MuEll(), Fraction(1, 4), 3)
            assert gain <= 0

    def test_mu_star_matches_mu_ell_stage(self):
        inst = small_gap_instance(stakes=(1, 1, 1))
        halves = canonical_split(1, (Fraction(1, 2), 2), (Fraction(1, 2), 1))
        a = sybil_gain(halves, inst.stakes(), inst, MuEll())
        b = sybil_gain(halves, inst.stakes(), inst, MuStar())
        assert a == b


# Each entry point that takes a stake profile, called on the verify fixture.
PROFILE_ENTRY_POINTS = {
    "max_sybil_gain": lambda inst, stakes: max_sybil_gain(
        1, stakes, inst, MuEll(), Fraction(1, 4), 3),
    "sybil_gain": lambda inst, stakes: sybil_gain(
        canonical_split(1, (2, 2), (1, 1)), stakes, inst, MuEll()),
    "preferred_recovery_sybils": lambda inst, stakes: preferred_recovery_sybils(
        1, stakes, inst, MuEll(), Fraction(1, 4), 3),
    "profile_harmful_for": lambda inst, stakes: profile_harmful_for(
        1, stakes, inst, MuEll()),
}


@pytest.mark.parametrize("entry", sorted(PROFILE_ENTRY_POINTS))
@pytest.mark.parametrize("profile, problem", [
    # the search used to price player 3 as present with no stake (a gain of 5),
    # and the profile read as harmless for player 1 (harmful with player 3 at
    # stake 1)
    ({1: 3, 2: 1}, "has no stake for players [3]"),
    ({1: 3, 2: 1, 3: 1, 4: 1}, "names unknown players [4]"),
    ({1: 3, 4: 1}, "has no stake for players [2, 3] and names unknown players [4]"),
], ids=["missing", "unknown", "both"])
def test_profile_must_stake_exactly_the_players(entry, profile, problem):
    inst = _sybil_fixture()
    stakes = {pid: Fraction(s) for pid, s in profile.items()}
    with pytest.raises(ValueError) as exc:
        PROFILE_ENTRY_POINTS[entry](inst, stakes)
    assert str(exc.value) == f"stake profile {problem}"


def reference_max_gain(owner, stakes, inst, policy, granularity, max_parts):
    """The search's definition: the first split reaching the max of sybil_gain."""
    best = None
    for split in enumerate_splits(owner, stakes, inst.types(), granularity, max_parts):
        gain = sybil_gain(split, stakes, inst, policy)
        if best is None or gain > best[0]:
            best = (gain, split)
    return best


@pytest.mark.parametrize("owner, policy", [(1, MuEll()), (2, MuEll()), (3, MuEll()),
                                           (1, MuAll())])
def test_max_gain_matches_its_definition_on_the_verify_fixture(owner, policy):
    inst = _sybil_fixture()
    args = (owner, inst.stakes(), inst, policy, Fraction(1, 4), 3)
    assert max_sybil_gain(*args) == reference_max_gain(*args)


HALVES = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
TYPES = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)])
SPLIT_POLICIES = st.one_of(
    st.builds(MuStar, st.sampled_from([Fraction(0), Fraction(1, 5)])),
    st.just(MuAll()),
    st.just(MuEll()),
    st.builds(MuAlpha, st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(TYPES, min_size=n, max_size=n),
    st.lists(HALVES, min_size=n, max_size=n),
    st.integers(1, n),
)), SPLIT_POLICIES, st.integers(1, 3))
def test_max_gain_matches_its_definition_on_random_instances(case, policy, max_parts):
    types, stakes, owner = case
    inst = make_instance(types, stakes)
    args = (owner, inst.stakes(), inst, policy, Fraction(1, 2), max_parts)
    assert max_sybil_gain(*args) == reference_max_gain(*args)


def reference_enumerate_splits(
    owner, stakes, types, granularity, max_parts, full_stake=False, limit=500_000
):
    """The enumeration on Fraction arithmetic, as before the integer grid."""
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


def split_outcome(enumerate_, *args, **kwargs):
    """Each split's parts in order, or the type and message of the exception."""
    try:
        return [split.parts for split in enumerate_(*args, **kwargs)]
    except ValueError as exc:
        return type(exc), str(exc)


def up_to_three(low):
    """ints and Fractions over denominators 1-6 in [low, 3], on and off every grid."""
    return st.one_of(st.integers(low, 3), st.integers(1, 6).flatmap(
        lambda den: st.integers(low * den, 3 * den).map(lambda num: Fraction(num, den))
    ))


class TestEnumerationMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        stake=up_to_three(0),
        type_=up_to_three(1),
        granularity=st.sampled_from([1, Fraction(2), Fraction(2, 3), Fraction(1, 3),
                                     Fraction(1, 4)]),
        max_parts=st.integers(1, 3),
        full_stake=st.booleans(),
        limit=st.integers(1, 40),
    )
    def test_same_splits_in_the_same_order(
        self, stake, type_, granularity, max_parts, full_stake, limit
    ):
        args = (1, {1: stake}, {1: type_}, granularity, max_parts)
        kwargs = {"full_stake": full_stake, "limit": limit}
        expected = split_outcome(reference_enumerate_splits, *args, **kwargs)
        assert split_outcome(enumerate_splits, *args, **kwargs) == expected

    @pytest.mark.parametrize(
        "granularity, max_parts, type_",
        [(0, 2, 2), (Fraction(-1, 2), 2, 2), (1, 0, 2), (1, 2, Fraction(1, 2))],
        ids=["zero granularity", "negative granularity", "no parts", "type below 1"],
    )
    def test_validation_matches_the_reference(self, granularity, max_parts, type_):
        args = (1, {1: Fraction(2)}, {1: type_}, granularity, max_parts)
        expected = split_outcome(reference_enumerate_splits, *args)
        assert isinstance(expected, tuple)
        assert split_outcome(enumerate_splits, *args) == expected


def reference_preferred(owner, stakes, inst, policy, granularity, max_parts):
    """The exhaustive max by (top type, top stake, parts) over recovering splits."""
    candidates = reference_enumerate_splits(
        owner, stakes, inst.types(), granularity, max_parts, full_stake=True
    )
    best = max(
        (split for split in candidates if _is_recovery_sybils(split, stakes, inst, policy)),
        key=lambda split: (split.top_part[1], split.top_part[0], split.parts),
        default=None,
    )
    if best is None:
        raise ValueError(f"no recovery split for player {owner}")
    return best


COSTS = st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 4)])
PREFERRED_POLICIES = st.sampled_from(
    [MuStar(), MuStar(Fraction(1, 5)), MuAll(), MuEll(), MuAlpha(Fraction(1, 2))]
)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(TYPES, min_size=n, max_size=n),
    st.lists(HALVES, min_size=n, max_size=n),
    st.lists(COSTS, min_size=n, max_size=n),
    st.integers(1, n),
)), PREFERRED_POLICIES, st.sampled_from([Fraction(1, 2), 1]), st.integers(1, 3))
def test_preferred_split_matches_the_exhaustive_max(case, policy, granularity, max_parts):
    # at granularity 1 the half stakes are off the grid, where both raise
    types, stakes, costs, owner = case
    inst = make_instance(types, stakes, costs=costs)
    args = (owner, inst.stakes(), inst, policy, granularity, max_parts)
    try:
        expected = reference_preferred(*args)
    except ValueError:
        with pytest.raises(ValueError):
            preferred_recovery_sybils(*args)
    else:
        assert preferred_recovery_sybils(*args) == expected


def reference_split_game(inst, stakes, split):
    """The split game built with ``dataclasses.replace``: a fresh token-value table."""
    owner = inst.player(split.owner)
    first = max(inst.ids) + 1
    part_ids = list(range(first, first + len(split.parts)))
    parts = tuple(replace(owner, id=pid, type_=t) for pid, (_, t) in zip(part_ids, split.parts))
    new_stakes = {pid: s for pid, s in stakes.items() if pid != split.owner}
    new_stakes.update(zip(part_ids, (s for s, _ in split.parts)))
    game = replace(
        inst,
        players=tuple(p for p in inst.players if p.id != split.owner) + parts,
        initial_stakes=tuple(sorted(new_stakes.items())),
    )
    return game, new_stakes, part_ids


def reference_utility(ids, stakes, inst, policy):
    """The ids' total stage utility at the myopic equilibrium, on ``Fraction``s.

    ``MuEll`` is priced by its stage, ``MuStar()``.  Each id holds her stake
    plus her :func:`expected_budget` (0 outside the set), priced at the set's
    :func:`stage_value`, and each member pays her cost.
    """
    stage = MuStar() if isinstance(policy, MuEll) else policy
    eq = myopic_equilibrium(stakes, inst, stage)
    _, v = stage_value(inst, stakes, eq)
    return sum(
        (stakes[pid] + expected_budget(stage, inst, stakes, pid, eq)) * v
        - (inst.player(pid).cost if pid in eq else 0)
        for pid in ids
    )


def reference_gain(split, stakes, inst, policy):
    game, new_stakes, part_ids = reference_split_game(inst, stakes, split)
    return (reference_utility(part_ids, new_stakes, game, policy)
            - reference_utility([split.owner], stakes, inst, policy))


# Costs up to 3/2 make members sit out; the affine value's fractional
# slope makes the token value's denominator more than 1.
UTILITY_COSTS = st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(3, 2)])
UTILITY_POLICIES = st.one_of(
    st.builds(MuStar, st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1)])),
    st.just(MuAll()),
    st.just(MuEll()),
    st.builds(MuAlpha, st.sampled_from([Fraction(0), Fraction(3, 8), Fraction(1)])),
    # a winner id up to 7 may name a part, or the owner the split replaced
    st.builds(FixedWinner, st.integers(1, 7)),
)


# A costly member rarely sits out on the drawn stakes: in the examples the
# owner's stake 4 makes her, and some of her parts, abstain.
ABSTAINING_OWNER = ([1, 1, 1], [4, 1, 1], [Fraction(1, 3), 0, 0], 1)


@pytest.mark.reseed
@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(TYPES, min_size=n, max_size=n),
    st.lists(HALVES, min_size=n, max_size=n),
    st.lists(UTILITY_COSTS, min_size=n, max_size=n),
    st.integers(1, n),
)), UTILITY_POLICIES,
    st.sampled_from([Fraction(1), Fraction(3, 2)]),
    st.sampled_from([IdentityValue(), AffineValue(Fraction(2, 3), Fraction(1, 5))]),
    st.integers(1, 3), st.integers(min_value=0))
@example(ABSTAINING_OWNER, MuStar(), Fraction(1), IdentityValue(), 3, 0)
@example(ABSTAINING_OWNER, MuAlpha(Fraction(3, 8)), Fraction(3, 2), IdentityValue(), 2, 5)
def test_the_integer_split_utility_matches_its_fraction_reference(
    case, policy, budget, vf, max_parts, pick
):
    types, stakes, costs, owner = case
    inst = make_instance(types, stakes, budget=budget, vf=vf, costs=costs)
    profile = inst.stakes()
    splits = enumerate_splits(owner, profile, inst.types(), Fraction(1, 2), max_parts)
    split = splits[pick % len(splits)]
    assert sybil_gain(split, profile, inst, policy) == reference_gain(split, profile, inst, policy)
    best = None
    for candidate in splits:
        gain = reference_gain(candidate, profile, inst, policy)
        if best is None or gain > best[0]:
            best = (gain, candidate)
    assert max_sybil_gain(owner, profile, inst, policy, Fraction(1, 2), max_parts) == best


# Pairwise coprime denominators: each new level grows the table's scale.
COPRIME_TABLE = {1: 1, 2: Fraction(5, 2), 3: Fraction(11, 3), 4: Fraction(29, 5)}


def test_the_shared_value_table_never_shows_in_results():
    # player 1's own profile reaches level 1 only; her splits reach 2 and 3
    inst = make_instance([3, 2, 1], [4, 2, 1], vf=TableValue.from_mapping(COPRIME_TABLE))
    stakes = inst.stakes()
    search = (MuStar(), Fraction(1, 2), 3)
    fresh_gain = max_sybil_gain(1, stakes, replace(inst), *search)
    assert max_sybil_gain(1, stakes, inst, *search) == fresh_gain
    assert inst._values == [6, 6, 15, 22]  # the splits grew the owner's table
    solves = (
        lambda game: myopic_equilibrium(stakes, game, MuStar()),
        lambda game: LookaheadSolver(game, MuStar()).solve(stakes),
        lambda game: LookaheadSolver(game, MuAll()).abstention_value(3, frozenset({1}), stakes),
        lambda game: Runner(game, MuStar(Fraction(1, 10)), "lookahead").run(10).records,
    )
    for solve in solves:
        fresh = replace(inst)
        assert fresh == inst
        assert solve(inst) == solve(fresh)


def test_a_split_that_reaches_a_missing_level_raises_as_an_unshared_one():
    # at tau 3/4 a three-part split reaches level 4, which the table lacks
    table = TableValue.from_mapping({d: COPRIME_TABLE[d] for d in (1, 2, 3)})
    inst = make_instance([3, 2, 1], [2, 1, 1], tau=Fraction(3, 4), vf=table)
    stakes = inst.stakes()
    with pytest.raises(ValueError, match="^value table has no entry for decentralization 4$"):
        max_sybil_gain(1, stakes, inst, MuStar(), Fraction(1, 2), 3)
    assert myopic_equilibrium(stakes, inst, MuAll()) == myopic_equilibrium(
        stakes, replace(inst), MuAll()
    )


@pytest.mark.parametrize("owner", [1, 2, 3])
def test_the_split_game_is_the_replaced_game_with_the_owners_table(owner):
    inst = make_instance([3, 2, 2], [4, 2, 1], costs=[Fraction(1, 4), Fraction(1, 3), 1],
                         vf=TableValue.from_mapping(COPRIME_TABLE))
    stakes = inst.stakes()
    for split in enumerate_splits(owner, stakes, inst.types(), 1, 3):
        game, new_stakes, part_ids = split_instance(inst, stakes, split)
        expected, expected_stakes, expected_ids = reference_split_game(inst, stakes, split)
        assert (game, new_stakes, part_ids) == (expected, expected_stakes, expected_ids)
        assert dict(game.type_order()) == dict(expected.type_order())
        for pid in expected.ids:
            assert game.player(pid) == expected.player(pid)
        assert all(game.player(pid).cost == inst.player(owner).cost for pid in part_ids)
        assert game._values is inst._values
