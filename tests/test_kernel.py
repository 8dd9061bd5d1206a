"""Property tests of the suffix kernel and of the solvers built on it.

The kernel (``RankedProfile``) evaluates every ranking suffix of a profile in
one pass; each test compares it with the per-set reference functions, or the
solvers with the brute-force oracle.  Stakes come from a small pool so that
ties are common, and include fractions with coprime denominators; tau
ranges over (0, 1).
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
from stakegame.equilibrium import (
    PAR,
    RankedProfile,
    RecoveryWinnerLabel,
    stage_utility,
    stage_value,
)
from stakegame.policies import top_type_participant

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
def instances(draw, max_n=8, costs=None):
    """Random instances; ``costs`` draws each player's cost, else costs are 0."""
    n = draw(st.integers(1, max_n))
    types = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
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
        assert profile.d[r] == tau_decentralization_index(values, inst.tau_threshold)
        assert profile.v[r] == token_value(profile.d[r], inst.value_function)
    assert profile.suffix(n + 1) == frozenset()
    assert (profile.d[n + 1], profile.v[n + 1]) == stage_value(inst, stakes, frozenset())


# Tied types are common; the fractional ones have coprime denominators.
TYPES = st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3), Fraction(5, 7),
     Fraction(3, 11), Fraction(10, 7)]
)


@st.composite
def typed_instances(draw):
    """Players in any order, ids not 1..n, and at times one id given twice."""
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
    players = [Player(id=pid, type_=draw(TYPES)) for pid in ids]
    if draw(st.booleans()):
        twin = Player(id=draw(st.sampled_from(ids)), type_=draw(TYPES))
        players.insert(draw(st.integers(0, len(players))), twin)
    stakes = {pid: draw(STAKES) for pid in ids}
    return players, Instance.build(players, stakes, 1, Fraction(1, 2), IdentityValue())


def reference_top(players, ids):
    """The Fraction order: largest type, then smallest id; a twin's first entry counts."""
    types = {}
    for p in players:
        types.setdefault(p.id, p.type_)
    return max(ids, key=lambda pid: (types[pid], -pid))


@given(typed_instances(), st.data())
def test_the_integer_type_order_matches_the_fraction_order(case, data):
    players, inst = case
    ranking = rank(inst.stakes())
    budgets = MuStar().leader_budgets(inst, inst.stakes(), ranking)
    for r, leader in enumerate(ranking, start=1):
        is_top = leader == reference_top(players, ranking[r - 1 :])
        assert (budgets[r] == inst.budget) == is_top
    ids = data.draw(st.lists(st.sampled_from(sorted(inst.stakes())), min_size=1))
    assert top_type_participant(inst, iter(ids)) == reference_top(players, ids)
    with pytest.raises(ValueError, match="empty participant set"):
        top_type_participant(inst, (pid for pid in ids if pid is None))


def test_a_changed_types_map_changes_no_top_type_decision():
    inst = make_instance([3, 2, 1], [3, 2, 1])
    stakes, ranking = inst.stakes(), rank(inst.stakes())
    before = MuStar().leader_budgets(inst, stakes, ranking)
    inst.types()[3] = Fraction(10)
    assert inst.types() == {1: Fraction(3), 2: Fraction(2), 3: Fraction(1)}
    assert top_type_participant(inst, {1, 2, 3}) == 1
    assert MuStar().leader_budgets(inst, stakes, ranking) == before == [0, 1, 1, 1]
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


@given(instances(), POLICIES)
def test_leader_budget_from_the_kernel_matches_expected_budget(inst, policy):
    stakes = inst.stakes()
    profile = RankedProfile(stakes, inst)
    budgets = policy.leader_budgets(inst, stakes, profile.ranking)
    assert len(budgets) == len(profile.ranking) + 1
    for r, leader in enumerate(profile.ranking, start=1):
        suffix = profile.suffix(r)
        assert budgets[r] == expected_budget(policy, inst, stakes, leader, suffix)


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
