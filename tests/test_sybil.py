from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import (
    MuAll,
    MuAlpha,
    MuEll,
    MuStar,
    enumerate_splits,
    is_recovery_sybils,
    make_split,
    max_sybil_gain,
    preferred_recovery_sybils,
    sybil_gain,
    sybil_proofness_condition,
)
from stakegame.cli import _sybil_fixture

from conftest import make_instance


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
        # top_part reads parts[0]: both constructors keep the canonical order
        splits = [
            make_split(1, parts)
            for parts in ([(1, 1), (2, 2), (1, 2)], [(3, 1), (1, 1)], [(1, 3), (2, 1)])
        ]
        for full_stake in (False, True):
            splits += enumerate_splits(
                1, {1: Fraction(3)}, {1: Fraction(4)}, Fraction(1, 2), 3, full_stake=full_stake
            )
        for split in splits:
            assert split.top_part == max(split.parts, key=lambda part: (part[1], part[0]))

    def test_make_split_validates(self):
        with pytest.raises(ValueError):
            make_split(1, [])
        with pytest.raises(ValueError):
            make_split(1, [(1, Fraction(1, 2))])
        with pytest.raises(ValueError):
            make_split(1, [(0, 1)])


class TestRecoverySplits:
    def test_identity_split_stays_harmful(self):
        inst = small_gap_instance()
        identity = make_split(1, [(3, 3)])
        assert not is_recovery_sybils(identity, inst.stakes(), inst, MuEll())

    def test_even_split_recovers(self):
        inst = small_gap_instance()
        even = make_split(1, [(1, 1), (1, 1), (1, 1)])
        assert is_recovery_sybils(even, inst.stakes(), inst, MuEll())

    def test_preferred_max_type(self):
        # recovering demands shedding at least a unit of stake off the top
        # part, which caps its type at 2 on the quarter grid
        inst = small_gap_instance()
        pref = preferred_recovery_sybils(1, inst.stakes(), inst, MuEll(), Fraction(1, 4), 3)
        assert pref.top_part[1] == 2
        assert is_recovery_sybils(pref, inst.stakes(), inst, MuEll())

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

    def test_single_player_vacuous(self):
        inst = make_instance([3], [5])
        report = sybil_proofness_condition(inst, MuEll(), 1, 2)
        assert report.satisfied


class TestGain:
    def test_identity_split_zero(self):
        inst = small_gap_instance(stakes=(1, 1, 1))
        identity = make_split(1, [(1, 3)])
        assert sybil_gain(identity, inst.stakes(), inst, MuEll()) == 0

    def test_all_pay_two_parts_gain_extra_share(self):
        inst = make_instance([3, 2, 1], [1, 1, 1])
        split = make_split(1, [(Fraction(1, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(3, 2))])
        # two quarter-shares of the budget instead of one third, at value 2
        assert sybil_gain(split, inst.stakes(), inst, MuAll()) == Fraction(1, 3)

    def test_all_pay_positive_gain_found(self):
        inst = make_instance([3, 2, 1], [1, 1, 1])
        gain, _ = max_sybil_gain(1, inst.stakes(), inst, MuAll(), Fraction(1, 4), 3)
        assert gain > 0

    def test_satisfied_condition_caps_gain(self):
        inst = small_gap_instance(stakes=(1, 1, 1))
        for pid in inst.ids:
            gain, _ = max_sybil_gain(pid, inst.stakes(), inst, MuEll(), Fraction(1, 4), 3)
            assert gain <= 0

    def test_mu_star_matches_mu_ell_stage(self):
        inst = small_gap_instance(stakes=(1, 1, 1))
        split = make_split(1, [(Fraction(1, 2), 1), (Fraction(1, 2), 2)])
        a = sybil_gain(split, inst.stakes(), inst, MuEll())
        b = sybil_gain(split, inst.stakes(), inst, MuStar())
        assert a == b


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
