import random
from collections import Counter
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
    rank,
    recovery_winner_labels,
    run,
    threshold,
    token_value,
)
from stakegame import equilibrium
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
        # the myopic rank prices ranks 1..k, k the first rank whose leader is
        # not harmed, each once by one rewards call on its suffix; the full
        # labeling prices each of the n ranks once
        calls, ranks = [], []
        rewards = MuStar.rewards
        leaders = RankedProfile.leaders

        def counting_rewards(policy, *args):
            calls.append(args)
            return rewards(policy, *args)

        def counting_leaders(profile, policy):
            price = leaders(profile, policy)

            def counting_price(r):
                ranks.append(r)
                return price(r)

            return counting_price

        for types, stakes, k in [([5, 4, 3, 2, 1], [6, 5, 4, 3, 3], 1),
                                 ([1, 1, 1, 1, 1], [9, 2, 2, 2, 1], 2)]:
            inst = make_instance(types, stakes)
            profile = RankedProfile(inst.stakes(), inst)
            harmed = [
                is_harmful(pid, profile.suffix(r), inst.stakes(), inst, MuStar()).harmful
                for r, pid in enumerate(profile.ranking, start=1)
            ]
            assert harmed.index(False) + 1 == k
            with monkeypatch.context() as patch:
                patch.setattr(MuStar, "rewards", counting_rewards)
                patch.setattr(RankedProfile, "leaders", counting_leaders)
                for solve, priced in [(myopic_equilibrium, list(range(1, k + 1))),
                                      (recovery_winner_labels, list(range(inst.n, 0, -1)))]:
                    calls.clear()
                    ranks.clear()
                    solve(inst.stakes(), inst, MuStar())
                    assert ranks == priced
                    assert len(calls) == len(priced)


@pytest.mark.parametrize("solve", [
    lambda stakes, inst: myopic_equilibrium(stakes, inst, MuStar()),
    lambda stakes, inst: LookaheadSolver(inst, MuStar()).solve(stakes),
], ids=["myopic", "lookahead"])
@pytest.mark.parametrize("tau, stakes, message", [
    (Fraction(1), {1: 1, 2: 1}, r"tau must lie in \(0, 1\), got 1"),
    (Fraction(1, 2), {1: -1, 2: 2}, "negative stake"),
    (Fraction(1, 2), {1: 0, 2: 0}, "all stakes are zero"),
    # the index of {5, 0} is defined, but the last suffix holds the 0 alone
    (Fraction(1, 2), {1: 5, 2: 0}, "^player 2 has zero stake; the suffix kernel needs"),
], ids=["tau 1", "negative stake", "all stakes zero", "one stake zero"])
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

    def test_an_unknown_id_is_named(self):
        th = threshold(run(make_instance([2, 1], [1, 1]), MuStar(), rounds=2))
        with pytest.raises(KeyError, match="no player with id 9"):
            th.of(9)

    def test_a_theta_above_the_value_floor_matches_a_by_hand_minimum(self):
        # Chosen by one rule: the first of 300 instances drawn with
        # random.Random(3) (3-6 players, types and stakes 1-8, one of
        # MuStar(), MuStar(1/10), MuAll() and MuAlpha(3/8), 30 myopic rounds)
        # whose theta exceeds v(1), the value of a lone player's set.
        inst = make_instance([5, 5, 6, 1, 7, 6], [1, 7, 3, 1, 6, 8])
        trace = run(inst, MuAll(), rounds=30)
        want = {}
        for rec in trace.records:
            stakes = dict(rec.stakes_before)
            _, v_full = stage_value(inst, stakes, frozenset(stakes))
            ranking = rank(stakes)
            for r, pid in enumerate(ranking):
                suffix = frozenset(ranking[r:])
                if is_harmful(pid, suffix, stakes, inst, MuAll()).harmful:
                    want[pid] = min(want.get(pid, v_full), v_full)
        th = threshold(trace)
        assert th.per_player == tuple((pid, want.get(pid)) for pid in sorted(inst.stakes()))
        assert th.theta == min(want.values()) == 2
        assert th.theta > token_value(1, inst.value_function)


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

    def test_unknown_behavior(self):
        inst = make_instance([2, 1], [1, 1])
        with pytest.raises(ValueError, match="^unknown behavior 'greedy'$"):
            brute_force_equilibrium(inst.stakes(), inst, MuStar(), behavior="greedy")

    @pytest.mark.parametrize("behavior", ["myopic", "lookahead"])
    def test_horizon_cap_checked_in_both_modes(self, behavior):
        inst = make_instance([2, 1], [1, 1])
        with pytest.raises(ValueError, match="^horizon cap must be at least 1$"):
            brute_force_equilibrium(inst.stakes(), inst, MuStar(), behavior, 0)


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


@pytest.mark.reseed
@pytest.mark.parametrize("behavior", ["myopic", "lookahead"])
@pytest.mark.parametrize("kind", sorted(ORACLE_POLICY_KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_oracle_matches_its_per_call_definition(kind, behavior, data):
    inst, policy = data.draw(oracle_cases(kind))
    stakes = inst.stakes()
    args = (stakes, inst, policy, behavior, 8)
    assert outcome(brute_force_equilibrium, *args) == outcome(reference_equilibria, *args)


@pytest.mark.reseed
@pytest.mark.parametrize("behavior", ["myopic", "lookahead"])
@pytest.mark.parametrize("kind", sorted(ORACLE_POLICY_KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_oracle_decides_each_player_and_set_once(kind, behavior, data):
    # a myopic decision prices i in S and i in S - {i}; a lookahead one
    # prices i in S and starts one walk for i from S - {i}: no key twice
    inst, policy = data.draw(oracle_cases(kind))
    stakes = inst.stakes()
    args = (stakes, inst, policy, behavior, 8)
    want = outcome(reference_equilibria, *args)
    priced = Counter()
    priced_utility, recovery = equilibrium._priced_utility, LookaheadSolver._recovery

    def counting_utility(instance, stakes, policy, i, participants, v):
        priced[i, participants] += 1
        return priced_utility(instance, stakes, policy, i, participants, v)

    def counting_recovery(solver, i, participants_now, *rest):
        priced[i, participants_now] += 1
        return recovery(solver, i, participants_now, *rest)

    with pytest.MonkeyPatch.context() as patch:
        if behavior == "myopic":
            patch.setattr(equilibrium, "_priced_utility", counting_utility)
        else:
            patch.setattr(LookaheadSolver, "_recovery", counting_recovery)
        got = outcome(brute_force_equilibrium, *args)
    assert priced and max(priced.values()) == 1
    assert got == want


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


# The public solvers, each called on a three-player instance with a profile.
SOLVER_ENTRY_POINTS = {
    "myopic_equilibrium": lambda inst, stakes: myopic_equilibrium(stakes, inst, MuStar()),
    "recovery_winner_labels": lambda inst, stakes: recovery_winner_labels(
        stakes, inst, MuStar()),
    "LookaheadSolver.solve": lambda inst, stakes: LookaheadSolver(inst, MuStar()).solve(stakes),
    "LookaheadSolver.solve_with_plans": lambda inst, stakes: LookaheadSolver(
        inst, MuStar()).solve_with_plans(stakes),
    # a missing player 3 used to give 3, a value in a smaller game
    "LookaheadSolver.abstention_value": lambda inst, stakes: LookaheadSolver(
        inst, MuStar()).abstention_value(1, frozenset({2}), stakes),
    "brute_force_equilibrium": lambda inst, stakes: brute_force_equilibrium(
        stakes, inst, MuStar()),
}


@pytest.mark.parametrize("i, others, problem", [
    # used to return 4: an "abstention" in which player 1 participates and is paid
    (1, {1, 2, 3}, "player 1 is in the participant set it abstains from"),
    # used to end in a bare KeyError: 9
    (1, {2, 9}, "participant set names unknown players [9]"),
    # used to walk 50 rounds, then raise LookaheadHorizonError for player 7
    (7, {2}, "no player with id 7"),
], ids=["owner in the set", "unknown player in the set", "unknown owner"])
def test_abstention_value_checks_its_owner_and_set(i, others, problem):
    inst = make_instance([3, 2, 1], [3, 2, 1])
    solver = LookaheadSolver(inst, MuStar())
    with pytest.raises(ValueError) as exc:
        solver.abstention_value(i, frozenset(others), inst.stakes())
    assert str(exc.value) == problem


@pytest.mark.parametrize("entry", sorted(SOLVER_ENTRY_POINTS))
@pytest.mark.parametrize("profile, problem", [
    # the myopic solve used to answer {1, 2}, the equilibrium of a smaller game
    ({1: 3, 2: 1}, "has no stake for players [3]"),
    # and to end in a bare KeyError: 9
    ({1: 3, 2: 1, 3: 1, 9: 1}, "names unknown players [9]"),
    ({1: 3, 9: 1}, "has no stake for players [2, 3] and names unknown players [9]"),
], ids=["missing", "unknown", "both"])
def test_profile_must_stake_exactly_the_players(entry, profile, problem):
    inst = make_instance([3, 2, 1], [1, 1, 1])
    stakes = {pid: Fraction(s) for pid, s in profile.items()}
    with pytest.raises(ValueError) as exc:
        SOLVER_ENTRY_POINTS[entry](inst, stakes)
    assert str(exc.value) == f"stake profile {problem}"
