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
    PAR,
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
        strict = is_harmful(
            2, everyone, stakes, inst, MuStar(), tie_participate=False
        )
        assert strict.harmful

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

    def test_par_label_under_strict_ties(self):
        # under the strict tie rule the rewardless top player is tie-harmful,
        # and abstaining offers no better index, so it is told to stay put
        inst = make_instance([1, 2], [2, 1])
        labels = recovery_winner_labels(
            inst.stakes(), inst, MuStar(), tie_participate=False
        )
        assert labels == {1: PAR}
        assert recovery_winner_labels(inst.stakes(), inst, MuStar()) == {}

    def test_par_label_without_candidates(self):
        # an absent fixed winner zeroes every reward; with strict ties all
        # ranks are tie-harmful and even the last rank has no recovery winner
        inst = make_instance([2, 1], [2, 1])
        labels = recovery_winner_labels(
            inst.stakes(), inst, FixedWinner(99), tie_participate=False
        )
        assert labels == {1: PAR, 2: PAR}

    def test_labeling_cost_is_linear_in_harmfulness_checks(self, monkeypatch):
        # each rank's harmfulness check prices its suffix once, with worth()
        inst = make_instance([5, 4, 3, 2, 1], [6, 5, 4, 3, 3])
        ranks = []
        original = RankedProfile.worth

        def counting(profile, policy, r):
            ranks.append(r)
            return original(profile, policy, r)

        monkeypatch.setattr(RankedProfile, "worth", counting)
        myopic_equilibrium(inst.stakes(), inst, MuStar())
        assert sorted(ranks) == list(range(1, inst.n + 1))


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


def reference_equilibria(stakes, inst, policy, behavior, tie_participate, horizon_cap):
    """The oracle's definition, one stage_utility call per check."""
    ids = sorted(stakes)
    solver = (
        LookaheadSolver(inst, policy, horizon_cap, tie_participate)
        if behavior == "lookahead"
        else None
    )

    def abstain(i, others):
        if solver is None:
            return stage_utility(inst, stakes, policy, i, others)
        return solver.abstention_value(i, others, stakes)

    def prefers_in(i, with_i, without_i):
        up = stage_utility(inst, stakes, policy, i, with_i)
        ua = abstain(i, without_i)
        return up >= ua if tie_participate else up > ua

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


@pytest.mark.parametrize("tie_participate", [True, False])
@pytest.mark.parametrize("behavior", ["myopic", "lookahead"])
@pytest.mark.parametrize("kind", sorted(ORACLE_POLICY_KINDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_oracle_matches_its_per_call_definition(kind, behavior, tie_participate, data):
    inst, policy = data.draw(oracle_cases(kind))
    stakes = inst.stakes()
    args = (stakes, inst, policy, behavior, tie_participate, 8)
    assert outcome(brute_force_equilibrium, *args) == outcome(reference_equilibria, *args)


@pytest.mark.parametrize("tie_participate", [True, False])
def test_oracle_empty_set_when_costs_exceed_every_gain(tie_participate):
    inst = make_instance([3, 2, 1], [2, 1, 1], costs=[10, 10, 10])
    args = (inst.stakes(), inst, MuStar(), "myopic", tie_participate, 50)
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
