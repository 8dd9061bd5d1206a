"""Property tests of the suffix kernel and of the solvers built on it.

The kernel (``RankedProfile``) evaluates every ranking suffix of a profile in
one pass; each test compares it with the per-set reference functions, or the
solvers with the brute-force oracle.  Stakes and types come from small
pools so that ties are common, and include fractions with coprime
denominators; tau ranges over (0, 1).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import (
    AffineValue,
    FixedWinner,
    IdentityValue,
    Instance,
    LookaheadSolver,
    MuAll,
    MuAlpha,
    MuStar,
    Player,
    Runner,
    TableValue,
    brute_force_equilibrium,
    expected_budget,
    expected_rewards,
    myopic_equilibrium,
    rank,
    recovery_winner_labels,
    tau_decentralization_index,
    token_value,
)
from stakegame.core import scaled_profile
from stakegame.equilibrium import (
    PAR,
    RankedProfile,
    RecoveryWinnerLabel,
    _labels,
    stage_utility,
    stage_value,
)
from stakegame.policies import point_mass_winner, top_type_participant

from conftest import make_instance

# The coprime denominators give the kernel's integer prefix sums a large
# common denominator.
STAKES = st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(1, 2), Fraction(5, 3),
     Fraction(5, 7), Fraction(3, 11), Fraction(7, 13), Fraction(1, 1024)]
)
TAUS = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20)
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=8)
COSTS = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5)])
# Tied types are common; the fractional ones have coprime denominators.
TYPES = st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3), Fraction(5, 7),
     Fraction(3, 11), Fraction(10, 7)]
)


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
def instances(draw, max_n=8, costs=None, types=TYPES):
    """Random instances; ``costs`` draws each player's cost, else costs are 0."""
    n = draw(st.integers(1, max_n))
    types = draw(st.lists(types, min_size=n, max_size=n))
    stakes = draw(st.lists(STAKES, min_size=n, max_size=n))
    return make_instance(
        types,
        stakes,
        budget=draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3)])),
        tau=draw(TAUS),
        vf=draw(value_functions(n)),
        costs=draw(st.lists(costs, min_size=n, max_size=n)) if costs is not None else None,
    )


POLICIES = st.one_of(
    st.builds(MuStar, UNIT),
    st.just(MuAll()),
    st.builds(MuAlpha, UNIT),
    st.builds(FixedWinner, st.integers(1, 9)),
)


@given(instances())
def test_kernel_matches_the_reference_on_every_suffix(inst):
    stakes = inst.stakes()
    profile = RankedProfile(scaled_profile(stakes), inst)
    ranking = rank(stakes)
    n = len(ranking)
    assert profile.ranking == ranking
    for r in range(1, n + 1):
        suffix = frozenset(ranking[r - 1 :])
        values = [stakes[pid] for pid in suffix]
        assert profile.suffix(r) == suffix
        assert profile.d[r] == tau_decentralization_index(values, inst.tau_threshold)
        assert profile.v[r] == token_value(profile.d[r], inst.value_function)
    assert profile.suffix(n + 1) == frozenset()
    assert (profile.d[n + 1], profile.v[n + 1]) == stage_value(inst, stakes, frozenset())


@given(instances())
def test_the_kernel_takes_a_stake_map_as_its_scaled_profile(inst):
    """The one way in: a map and its :func:`scaled_profile` build the same kernel."""
    stakes = inst.stakes()
    scaled = scaled_profile(stakes)
    by_map, by_scaled = RankedProfile(stakes, inst), RankedProfile(scaled, inst)
    for name in ("ranking", "d", "v", "prefix", "v_scaled", "v_scale"):
        assert getattr(by_map, name) == getattr(by_scaled, name)
    # the scaled form passes through as it is; a map gets the same ints, in its id order
    assert by_scaled.stakes is scaled
    assert (by_map.stakes.nums, by_map.stakes.den) == (scaled.nums, scaled.den)
    assert list(by_map.stakes.nums) == list(stakes)


@st.composite
def typed_instances(draw):
    """Players in any order, ids not 1..n (a repeated id is rejected at construction)."""
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
    players = [Player(id=pid, type_=draw(TYPES)) for pid in ids]
    stakes = {pid: draw(STAKES) for pid in ids}
    return players, Instance.build(players, stakes, 1, Fraction(1, 2), IdentityValue())


def reference_top(players, ids):
    """The Fraction order: largest type, then smallest id."""
    types = {p.id: p.type_ for p in players}
    return max(ids, key=lambda pid: (types[pid], -pid))


@given(typed_instances(), st.data())
def test_the_integer_type_order_matches_the_fraction_order(case, data):
    players, inst = case
    profile = RankedProfile(inst.stakes(), inst)
    price = profile.leaders(MuStar())
    for r, leader in enumerate(profile.ranking, start=1):
        is_top = leader == reference_top(players, profile.ranking[r - 1 :])
        worth, _, stake, unit = price(r)
        # the leader's reward priced at v[r], which the identity value keeps positive
        paid = Fraction(worth - stake * profile.v_scaled[r], unit)
        assert (paid == inst.budget * profile.v[r]) == is_top
    ids = data.draw(st.lists(st.sampled_from(sorted(inst.stakes())), min_size=1))
    assert top_type_participant(inst, iter(ids)) == reference_top(players, ids)
    with pytest.raises(ValueError, match="empty participant set"):
        top_type_participant(inst, (pid for pid in ids if pid is None))


def test_a_changed_types_map_changes_no_top_type_decision():
    inst = make_instance([3, 2, 1], [3, 2, 1])
    stakes, ranking = inst.stakes(), rank(inst.stakes())

    def suffix_rewards():
        return [MuStar().rewards(inst, stakes, ranking[r - 1 :]) for r in range(1, 4)]

    before = suffix_rewards()
    inst.types()[3] = Fraction(10)
    assert inst.types() == {1: Fraction(3), 2: Fraction(2), 3: Fraction(1)}
    assert top_type_participant(inst, {1, 2, 3}) == 1
    after = suffix_rewards()
    assert after == before
    # each suffix's leader is its top type and takes the whole budget
    assert after == [({pid: 1}, 1) for pid in ranking]
    with pytest.raises(TypeError):
        inst.type_order()[3] = -1


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


@given(instances(costs=COSTS), POLICIES)
def test_leader_budget_from_the_kernel_matches_expected_budget(inst, policy):
    stakes = inst.stakes()
    profile = RankedProfile(scaled_profile(stakes), inst)
    price = profile.leaders(policy)
    for r, leader in enumerate(profile.ranking, start=1):
        budget = expected_budget(policy, inst, stakes, leader, profile.suffix(r))
        nums, den = policy.rewards(inst, profile.stakes, profile.ranking[r - 1 :])
        assert Fraction(nums.get(leader, 0), den) == budget
        # the kernel's price of that reward, against the Fraction one
        worth, net, stake, unit = price(r)
        assert all(type(x) is int for x in (worth, net, stake, unit)) and unit > 0
        assert Fraction(worth, unit) == (stakes[leader] + budget) * profile.v[r]
        assert Fraction(worth - net, unit) == inst.player(leader).cost
        assert Fraction(stake * profile.v_scaled[r + 1], unit) == stakes[leader] * profile.v[r + 1]


# The rewards rules' edges: epsilon 1 (the top's share is zero), epsilon 0,
# and alpha at both ends of [0, 1].
ENDS = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), UNIT)
RULE_POLICIES = st.one_of(
    st.builds(MuStar, ENDS),
    st.just(MuAll()),
    st.builds(MuAlpha, ENDS),
    st.builds(FixedWinner, st.integers(1, 9)),
)


@given(instances(), RULE_POLICIES, st.data())
def test_the_integer_rewards_rule_matches_expected_budget(inst, policy, data):
    stakes = inst.stakes()
    participants = frozenset(data.draw(st.sets(st.sampled_from(sorted(stakes)), min_size=1)))
    # the walk and the engine hand over the kernel's scaled stakes
    given_stakes = data.draw(st.sampled_from([stakes, scaled_profile(stakes)]))
    nums, den = policy.rewards(inst, given_stakes, participants)
    assert type(den) is int and den > 0
    assert nums.keys() <= participants
    for pid in stakes:
        want = expected_budget(policy, inst, stakes, pid, participants)
        if pid in nums:
            assert type(nums[pid]) is int and nums[pid] != 0
            assert Fraction(nums[pid], den) == want
        else:
            assert want == 0


@settings(max_examples=60, deadline=None)
@given(instances(), RULE_POLICIES, st.integers(0, 2**32))
def test_one_step_records_the_rules_rewards(inst, policy, seed):
    record = Runner(inst, policy).step()
    want = expected_rewards(policy, inst, inst.stakes(), record.participants)
    assert record.rewards == tuple(sorted((pid, r) for pid, r in want.items() if r))
    assert dict(record.stakes_after) == {pid: s + want[pid] for pid, s in inst.stakes().items()}
    # a sampled step draws only from a mixed distribution, and the winner it
    # draws takes the whole budget
    sampled = Runner(inst, policy, mode="sampled", seed=seed).step()
    assert sampled.participants == record.participants
    dist = policy.distribution(inst, inst.stakes(), record.participants)
    if point_mass_winner(dist) is None:
        assert dist[sampled.winner] > 0
        assert sampled.rewards == ((sampled.winner, inst.budget),)
    else:
        assert sampled == record


def reference_labels(inst, stakes, policy):
    """Labels by player and the myopic rank, rank by rank in Fractions.

    Rank r is harmful when participating in suffix r is worth less than
    abstaining to suffix r + 1; it is labeled with the last candidate (a
    rank non-harmful or labeled PAR) when its cost-free worth is below its
    stake priced at the candidate's value, and PAR otherwise.
    """
    ranking = rank(stakes)

    def suffix(r):
        return frozenset(ranking[r - 1:])

    def value(r):
        return stage_value(inst, stakes, suffix(r))[1]

    labels, candidate = {}, None
    for r in range(len(ranking), 0, -1):
        pid = ranking[r - 1]
        participate = stage_utility(inst, stakes, policy, pid, suffix(r))
        if participate >= stage_utility(inst, stakes, policy, pid, suffix(r + 1)):
            candidate = r
            continue
        worth = participate + inst.player(pid).cost
        if candidate is not None and worth < value(candidate) * stakes[pid]:
            labels[pid] = RecoveryWinnerLabel(candidate)
        else:
            labels[pid] = PAR
            candidate = r
    return labels, suffix(candidate)


@given(instances(costs=COSTS), POLICIES)
def test_labels_and_myopic_rank_match_the_per_rank_reference(inst, policy):
    stakes = inst.stakes()
    labels, eq = reference_labels(inst, stakes, policy)
    assert recovery_winner_labels(stakes, inst, policy) == labels
    assert myopic_equilibrium(stakes, inst, policy) == eq


# Every stage policy at its edges; a fixed winner may sit outside the suffix
# or be no player at all (9 > max_n).
STAGE_POLICIES = st.one_of(
    st.builds(MuStar, st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1)])),
    st.just(MuAll()),
    st.builds(MuAlpha, st.sampled_from([Fraction(0), Fraction(3, 8), Fraction(1)])),
    st.builds(FixedWinner, st.integers(1, 9)),
)


@given(instances(costs=COSTS, types=TYPES.filter(lambda t: t >= 1)), STAGE_POLICIES)
def test_the_myopic_rank_from_the_top_is_the_full_pass_rank(inst, policy):
    stakes = inst.stakes()
    profile = RankedProfile(stakes, inst)
    labels, r = _labels(profile, policy)
    assert myopic_equilibrium(stakes, inst, policy) == profile.suffix(r)
    # from the top, the scan stops at the first rank k without a label, and
    # labels exactly the ranks above it as the full pass does
    k = min(set(range(1, inst.n + 2)) - labels.keys())
    assert _labels(profile, policy, from_top=True) == (
        {q: label for q, label in labels.items() if q < k}, r
    )


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


@pytest.mark.xfail(
    strict=True, reason="the myopic suffix keeps a player whose cost exceeds her reward"
)
def test_myopic_suffix_against_a_costly_player():
    # Player 2 gets no reward under MuStar, and her cost of 10 makes
    # participating worse than abstaining; the labeler finds no rank below
    # hers to recover to and labels her PAR, so the suffix keeps her.  The
    # oracle's only equilibrium is {1}.
    inst = make_instance([2, 1], [2, 1], costs=[0, 10])
    eq = myopic_equilibrium(inst.stakes(), inst, MuStar())
    assert brute_force_equilibrium(inst.stakes(), inst, MuStar()) == [eq]
