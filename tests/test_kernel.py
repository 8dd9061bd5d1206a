"""Property tests of the suffix kernel and of the solvers built on it.

The kernel (``RankedProfile``) evaluates every ranking suffix of a profile in
one pass; each test compares it with the per-set reference functions, or the
solvers with the brute-force oracle.  Stakes come from a small pool so that
ties are common, and include fractions; tau ranges over (0, 1).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import (
    AffineValue,
    FixedWinner,
    IdentityValue,
    LookaheadSolver,
    MuAll,
    MuAlpha,
    MuStar,
    TableValue,
    brute_force_equilibrium,
    expected_budget,
    expected_rewards,
    myopic_equilibrium,
    rank,
    tau_decentralization_index,
    token_value,
)
from stakegame.equilibrium import RankedProfile, stage_value
from stakegame.policies import top_type_participant

from conftest import make_instance

STAKES = st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(1, 2), Fraction(5, 3)]
)
TAUS = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20)
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def value_functions(draw, n):
    kind = draw(st.sampled_from(["identity", "affine", "table"]))
    if kind == "identity":
        return IdentityValue()
    if kind == "affine":
        return AffineValue(draw(UNIT) * 3, draw(UNIT))
    steps = draw(st.lists(st.sampled_from([0, 1, 3]), min_size=n, max_size=n))
    return TableValue.from_mapping({d: 1 + sum(steps[:d]) for d in range(1, n + 1)})


@st.composite
def instances(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    types = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    stakes = draw(st.lists(STAKES, min_size=n, max_size=n))
    return make_instance(
        types,
        stakes,
        budget=draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3)])),
        tau=draw(TAUS),
        vf=draw(value_functions(n)),
    )


POLICIES = st.one_of(
    st.builds(MuStar, UNIT.filter(lambda e: e < 1)),
    st.just(MuAll()),
    st.builds(MuAlpha, UNIT),
    st.builds(FixedWinner, st.integers(1, 9)),
)


@given(instances())
def test_kernel_matches_the_reference_on_every_suffix(inst):
    stakes = inst.stakes()
    profile = RankedProfile(stakes, inst)
    ranking = rank(stakes)
    n = len(ranking)
    assert profile.ranking == ranking
    for r in range(1, n + 1):
        suffix = frozenset(ranking[r - 1 :])
        values = [stakes[pid] for pid in suffix]
        assert profile.suffix(r) == suffix
        assert profile.total[r] == sum(values)
        assert profile.d[r] == tau_decentralization_index(values, inst.tau_threshold)
        assert profile.v[r] == token_value(profile.d[r], inst.value_function)
        assert profile.top[r] == top_type_participant(inst, suffix)
    assert profile.suffix(n + 1) == frozenset()
    assert (profile.d[n + 1], profile.v[n + 1]) == stage_value(inst, stakes, frozenset())


@given(instances(), POLICIES, st.data())
def test_expected_rewards_match_expected_budget(inst, policy, data):
    stakes = inst.stakes()
    participants = frozenset(data.draw(st.sets(st.sampled_from(sorted(stakes)))))
    rewards = expected_rewards(policy, inst, stakes, participants)
    assert list(rewards) == list(stakes)
    for pid in stakes:
        assert rewards[pid] == expected_budget(policy, inst, stakes, pid, participants)
    if not participants:
        assert set(rewards.values()) == {0}


@given(instances(), POLICIES)
def test_leader_budget_from_the_kernel_matches_expected_budget(inst, policy):
    stakes = inst.stakes()
    profile = RankedProfile(stakes, inst)
    for r, leader in enumerate(profile.ranking, start=1):
        suffix = profile.suffix(r)
        hinted = policy.member_budget(
            inst, stakes, leader, profile.ranking[r - 1 :], profile.top[r]
        )
        assert hinted == expected_budget(policy, inst, stakes, leader, suffix)


# The regime of the oracle tests: stakes of at least 3 against a unit budget
# keep each index level's value drop above one round's reward, where the
# suffix equilibrium is the unique myopic stage equilibrium.  A dominant
# stake makes the top ranks harmful, so abstention is exercised too.
@st.composite
def aligned_instances(draw, dominant):
    n = draw(st.integers(2, 6))
    types = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    stakes = draw(st.lists(st.integers(3, 6), min_size=n, max_size=n))
    if dominant and draw(st.booleans()):
        stakes[draw(st.integers(0, n - 1))] = draw(st.integers(8, 20))
    return make_instance(types, stakes)


ORACLE_POLICIES = st.one_of(
    st.just(MuStar()),
    st.builds(MuStar, st.sampled_from([Fraction(1, 10), Fraction(1, 4)])),
    st.just(MuAll()),
    st.builds(MuAlpha, UNIT),
    st.builds(FixedWinner, st.integers(1, 6)),
)


@settings(max_examples=60, deadline=None)
@given(aligned_instances(dominant=True), ORACLE_POLICIES)
def test_myopic_equilibrium_is_the_oracles_unique_equilibrium(inst, policy):
    stakes = inst.stakes()
    eq = myopic_equilibrium(stakes, inst, policy)
    assert brute_force_equilibrium(stakes, inst, policy) == [eq]


# Without a dominant stake: with one, the lookahead suffix can fail the
# oracle (see test_lookahead_suffix_against_a_dominant_stake) and plans can
# overrun the horizon cap.
@settings(max_examples=30, deadline=None)
@given(aligned_instances(dominant=False), ORACLE_POLICIES)
def test_lookahead_solve_is_an_oracle_equilibrium(inst, policy):
    stakes = inst.stakes()
    eq = LookaheadSolver(inst, policy).solve(stakes)
    oracle = brute_force_equilibrium(stakes, inst, policy, behavior="lookahead")
    # The suffix solver never returns the empty set: where the oracle's only
    # equilibrium is empty, it answers with a non-empty suffix instead.
    assert eq in oracle or oracle == [frozenset()]


@pytest.mark.xfail(strict=True, reason="the lookahead suffix ignores deviations from the full set")
def test_lookahead_suffix_against_a_dominant_stake():
    # Everyone participates in the solver's suffix, yet under lookahead
    # pricing players 2 and 3 gain by leaving it; the oracle's only
    # equilibrium is {1}.
    inst = make_instance([1, 1, 1], [8, 3, 3])
    eq = LookaheadSolver(inst, MuStar()).solve(inst.stakes())
    assert eq in brute_force_equilibrium(inst.stakes(), inst, MuStar(), behavior="lookahead")
