import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import (
    AffineValue,
    FixedWinner,
    LookaheadHorizonError,
    LookaheadSolver,
    MuAll,
    MuAlpha,
    MuStar,
    brute_force_equilibrium,
    is_harmful,
    myopic_equilibrium,
    recovery_winner_labels,
    run,
    threshold,
)
from stakegame.equilibrium import (
    RankedProfile,
    RecoveryWinnerLabel,
    stage_utility,
    stage_value,
)

from conftest import make_instance


class TestHarmfulness:
    def test_dominant_stake_is_harmful(self):
        # participating collapses the index to 1 and halves the token value
        inst = make_instance([3, 2, 1], [3, 1, 1])
        verdict = is_harmful(1, frozenset({1, 2, 3}), inst.stakes(), inst, MuStar())
        assert verdict.harmful
        assert verdict.utility_participate == 4
        assert verdict.utility_abstain == 6

    def test_balanced_profile_not_harmful(self, three_player_instance):
        inst = three_player_instance
        verdict = is_harmful(1, frozenset({1, 2, 3}), inst.stakes(), inst, MuStar())
        assert not verdict.harmful

    def test_tie_favors_participation(self):
        # player 2 earns no reward and leaves the index unchanged either way
        inst = make_instance([3, 2], [2, 1])
        stakes = inst.stakes()
        everyone = frozenset(stakes)
        v = is_harmful(2, everyone, stakes, inst, MuStar())
        assert v.utility_participate == v.utility_abstain
        assert not v.harmful

    def test_must_be_member(self, three_player_instance):
        inst = three_player_instance
        with pytest.raises(ValueError):
            is_harmful(1, frozenset({2, 3}), inst.stakes(), inst, MuStar())


class TestStageValue:
    def test_empty_set_minimum_level(self, three_player_instance):
        d, v = stage_value(three_player_instance, {}, frozenset())
        assert (d, v) == (1, Fraction(1))

    def test_participants_only(self, three_player_instance):
        inst = three_player_instance
        stakes = {1: Fraction(9), 2: Fraction(1), 3: Fraction(1)}
        d, _ = stage_value(inst, stakes, frozenset({2, 3}))
        assert d == 2  # player 1's stake does not count


class TestMyopicEquilibrium:
    def test_balanced_all_participate(self, three_player_instance):
        inst = three_player_instance
        assert myopic_equilibrium(inst.stakes(), inst, MuStar()) == frozenset({1, 2, 3})

    def test_harmful_top_drops_out(self):
        inst = make_instance([3, 2, 1], [3, 1, 1])
        assert myopic_equilibrium(inst.stakes(), inst, MuStar()) == frozenset({2, 3})

    def test_harmful_without_recovery_stays(self):
        # at (4,2,1) abstention no longer pays: index is 1 either way
        inst = make_instance([3, 2, 1], [4, 2, 1])
        assert myopic_equilibrium(inst.stakes(), inst, MuStar()) == frozenset({1, 2, 3})

    def test_labels_expose_recovery_winner(self):
        inst = make_instance([3, 2, 1], [3, 1, 1])
        labels = recovery_winner_labels(inst.stakes(), inst, MuStar())
        assert labels == {1: RecoveryWinnerLabel(rank=2)}

    def test_indifferent_top_player_gets_no_label(self):
        # the rewardless top player is indifferent: abstaining offers no
        # better index, and ties go to participating
        inst = make_instance([1, 2], [2, 1])
        assert recovery_winner_labels(inst.stakes(), inst, MuStar()) == {}

    def test_labeling_cost_is_linear_in_harmfulness_checks(self, monkeypatch):
        # one pricing pass of the policy per labeling, one decision per rank
        inst = make_instance([5, 4, 3, 2, 1], [6, 5, 4, 3, 3])
        passes, ranks = [], []
        budgets = MuStar.leader_budgets
        leaders = RankedProfile.leaders

        def counting_budgets(policy, *args):
            passes.append(args)
            return budgets(policy, *args)

        def counting_leaders(profile, policy):
            for row in leaders(profile, policy):
                ranks.append(row[0])
                yield row

        monkeypatch.setattr(MuStar, "leader_budgets", counting_budgets)
        monkeypatch.setattr(RankedProfile, "leaders", counting_leaders)
        myopic_equilibrium(inst.stakes(), inst, MuStar())
        assert len(passes) == 1
        assert sorted(ranks) == list(range(1, inst.n + 1))


@pytest.mark.parametrize("solve", [
    lambda stakes, inst: myopic_equilibrium(stakes, inst, MuStar()),
    lambda stakes, inst: LookaheadSolver(inst, MuStar()).solve(stakes),
], ids=["myopic", "lookahead"])
@pytest.mark.parametrize("tau, stakes, message", [
    (Fraction(1), {1: 1, 2: 1}, r"tau must lie in \(0, 1\), got 1"),
    (Fraction(1, 2), {1: -1, 2: 2}, "negative stake"),
    (Fraction(1, 2), {1: 0, 2: 0}, "all stakes are zero"),
], ids=["tau 1", "negative stake", "all stakes zero"])
def test_solvers_reject_a_profile_with_no_index(solve, tau, stakes, message):
    inst = make_instance([2, 1], [1, 1], tau=tau)
    with pytest.raises(ValueError, match=message):
        solve({pid: Fraction(s) for pid, s in stakes.items()}, inst)


@pytest.mark.parametrize("solve", [
    lambda stakes, inst: myopic_equilibrium(stakes, inst, MuStar()),
    lambda stakes, inst: recovery_winner_labels(stakes, inst, MuStar()),
    lambda stakes, inst: LookaheadSolver(inst, MuStar()).solve(stakes),
], ids=["myopic", "labels", "lookahead"])
@pytest.mark.parametrize("stake", [0.5, "1/2"], ids=["float", "str"])
def test_solvers_take_only_int_or_fraction_stakes(solve, stake):
    inst = make_instance([2, 1], [1, 1])
    with pytest.raises(TypeError, match="stakes must be int or Fraction"):
        solve({1: Fraction(1), 2: stake}, inst)


class TestLookahead:
    def test_planning_exit_round_five(self):
        # the two larger players sit out so the smallest can catch up
        inst = make_instance([3, 2, 1], [4, 2, 1])
        participants, plans = LookaheadSolver(inst, MuStar()).solve_with_plans(inst.stakes())
        assert participants == frozenset({3})
        assert set(plans) == {1, 2}
        assert plans[2].length == 1
        # player 2 re-enters next round at token value 2
        assert plans[2].terminal_value == 4

    def test_matches_myopic_when_balanced(self, three_player_instance):
        inst = three_player_instance
        participants, plans = LookaheadSolver(inst, MuStar()).solve_with_plans(inst.stakes())
        assert participants == frozenset({1, 2, 3})
        assert plans == {}

    def test_repeated_solves_are_equal(self):
        inst = make_instance([3, 2, 1], [4, 2, 1])
        solver = LookaheadSolver(inst, MuStar())
        first = solver.solve(inst.stakes())
        assert solver.solve(inst.stakes()) == first == frozenset({3})
        assert LookaheadSolver(inst, MuStar()).solve(inst.stakes()) == first

    def test_multi_step_plan_under_equal_shares(self):
        # huge value cliff: the heavy player stays out until the others,
        # paid equal shares, grow enough that her re-entry keeps the index
        from stakegame import TableValue

        vf = TableValue.from_mapping({1: 1, 2: 100, 3: 1000})
        inst = make_instance([3, 2, 1], [10, 1, 1], vf=vf)
        solver = LookaheadSolver(inst, MuAll(), horizon_cap=20)
        participants, plans = solver.solve_with_plans(inst.stakes())
        assert participants == frozenset({2, 3})
        assert plans[1].length > 1

    def test_horizon_error_names_player(self):
        from stakegame import TableValue

        vf = TableValue.from_mapping({1: 1, 2: 100, 3: 1000})
        inst = make_instance([3, 2, 1], [10, 1, 1], vf=vf)
        solver = LookaheadSolver(inst, MuAll(), horizon_cap=3)
        with pytest.raises(LookaheadHorizonError) as err:
            solver.solve(inst.stakes())
        assert err.value.player == 1
        assert err.value.cap == 3

    def test_cap_validation(self, three_player_instance):
        with pytest.raises(ValueError):
            LookaheadSolver(three_player_instance, MuStar(), horizon_cap=0)


class TestThreshold:
    def test_example_threshold_is_one(self, three_player_instance):
        th = threshold(run(three_player_instance, MuStar(), rounds=10))
        assert th.theta == 1
        assert th.of(1) == 1
        assert th.of(2) is None and th.of(3) is None

    def test_never_harmful_instance(self):
        inst = make_instance([3, 2, 1], [4, 4, 4])
        th = threshold(run(inst, MuStar(), rounds=3))
        assert th.theta is None


class TestBruteForce:
    def test_agrees_on_examples(self, three_player_instance):
        inst = three_player_instance
        for stakes in ({1: 1, 2: 1, 3: 1}, {1: 3, 2: 1, 3: 1}, {1: 4, 2: 2, 3: 1}):
            stakes = {k: Fraction(v) for k, v in stakes.items()}
            eq = myopic_equilibrium(stakes, inst, MuStar())
            oracle = brute_force_equilibrium(stakes, inst, MuStar())
            assert oracle == [eq]

    def test_lookahead_agreement(self):
        inst = make_instance([3, 2, 1], [4, 2, 1])
        stakes = inst.stakes()
        eq, _ = LookaheadSolver(inst, MuStar()).solve_with_plans(stakes)
        oracle = brute_force_equilibrium(stakes, inst, MuStar(), behavior="lookahead")
        assert eq in oracle

    def test_non_aligned_profiles_can_have_extra_equilibria(self):
        # outside the aligned regime the suffix equilibrium is not unique
        inst = make_instance([6, 1, 2, 3], [1, 1, 6, 5])
        oracle = brute_force_equilibrium(inst.stakes(), inst, MuStar())
        assert len(oracle) > 1

    def test_size_guard(self):
        inst = make_instance([1] * 13, [1] * 13)
        with pytest.raises(ValueError):
            brute_force_equilibrium(inst.stakes(), inst, MuStar())


def reference_equilibria(stakes, inst, policy, behavior, horizon_cap):
    """The oracle's definition, one stage_utility call per check."""
    ids = sorted(stakes)
    solver = LookaheadSolver(inst, policy, horizon_cap) if behavior == "lookahead" else None

    def abstain(i, others):
        if solver is None:
            return stage_utility(inst, stakes, policy, i, others)
        return solver.abstention_value(i, others, stakes)

    def prefers_in(i, with_i, without_i):
        return stage_utility(inst, stakes, policy, i, with_i) >= abstain(i, without_i)

    return [
        subset
        for size in range(len(ids) + 1)
        for subset in map(frozenset, combinations(ids, size))
        if all(prefers_in(i, subset, subset - {i}) for i in subset)
        and not any(prefers_in(i, subset | {i}, subset) for i in ids if i not in subset)
    ]


def outcome(fn, *args):
    try:
        return fn(*args)
    except LookaheadHorizonError as exc:
        return ("horizon", exc.player, exc.cap)


ORACLE_POLICY_KINDS = {
    "mu_star": st.builds(MuStar, st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 3)])),
    "mu_all": st.just(MuAll()),
    "mu_alpha": st.builds(MuAlpha, st.sampled_from([Fraction(0), Fraction(3, 8), Fraction(1)])),
    "fixed_winner": st.builds(FixedWinner, st.integers(1, 4)),
}


@st.composite
def oracle_cases(draw, kind):
    n = draw(st.integers(1, 4))
    costs = st.sampled_from([0, 0, Fraction(1, 2), 1, 10])
    inst = make_instance(
        draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(7, 2)]),
                      min_size=n, max_size=n)),
        budget=draw(st.sampled_from([1, Fraction(1, 2), 3])),
        tau=draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])),
        vf=draw(st.sampled_from([None, AffineValue(Fraction(1, 2), Fraction(1))])),
        costs=draw(st.lists(costs, min_size=n, max_size=n)),
    )
    return inst, draw(ORACLE_POLICY_KINDS[kind])


@pytest.mark.parametrize("behavior", ["myopic", "lookahead"])
@pytest.mark.parametrize("kind", sorted(ORACLE_POLICY_KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_oracle_matches_its_per_call_definition(kind, behavior, data):
    inst, policy = data.draw(oracle_cases(kind))
    stakes = inst.stakes()
    args = (stakes, inst, policy, behavior, 8)
    assert outcome(brute_force_equilibrium, *args) == outcome(reference_equilibria, *args)


def test_oracle_empty_set_when_costs_exceed_every_gain():
    inst = make_instance([3, 2, 1], [2, 1, 1], costs=[10, 10, 10])
    args = (inst.stakes(), inst, MuStar(), "myopic", 50)
    assert brute_force_equilibrium(*args) == [frozenset()]
    assert reference_equilibria(*args) == [frozenset()]


def test_random_oracle_agreement_mu_all():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 6)
        inst = make_instance(
            [rng.randint(1, 6) for _ in range(n)],
            [rng.randint(3, 6) for _ in range(n)],
        )
        policy = MuAll() if rng.random() < 0.5 else MuStar()
        eq = myopic_equilibrium(inst.stakes(), inst, policy)
        assert brute_force_equilibrium(inst.stakes(), inst, policy) == [eq]


def test_stage_utility_costs_subtract():
    inst = make_instance([3, 2], [4, 4], costs=[1, 0])
    with_cost = stage_utility(inst, inst.stakes(), MuStar(), 1, frozenset({1, 2}))
    free = stage_utility(inst, inst.stakes(), MuStar(), 2, frozenset({1, 2}))
    d, v = stage_value(inst, inst.stakes(), frozenset({1, 2}))
    assert with_cost == (4 + 1) * v - 1
    assert free == 4 * v
