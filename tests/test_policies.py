from fractions import Fraction

import pytest

from stakegame import (
    FixedWinner,
    LookaheadSolver,
    MuAll,
    MuAlpha,
    MuEll,
    MuStar,
    brute_force_equilibrium,
    expected_budget,
    expected_rewards,
    is_harmful,
    myopic_equilibrium,
    rank,
    recovery_winner_labels,
    run,
    winner_distribution,
)
from stakegame.policies import draw_winner, point_mass_winner, top_type_participant

from conftest import make_instance


@pytest.fixture
def inst():
    return make_instance([3, 2, 1], [1, 1, 1])


class TestTopType:
    def test_picks_largest_type(self, inst):
        assert top_type_participant(inst, {2, 3}) == 2

    def test_tie_by_smallest_id(self):
        inst = make_instance([2, 2, 1], [1, 1, 1])
        assert top_type_participant(inst, {1, 2, 3}) == 1

    def test_empty_raises(self, inst):
        with pytest.raises(ValueError):
            top_type_participant(inst, set())


# Every entry point that needs a stage rule rejects an unresolved MuEll alike.
UNRESOLVED_MU_ELL = {
    "winner_distribution": lambda inst, stakes, q: winner_distribution(MuEll(), inst, stakes, q),
    "expected_budget": lambda inst, stakes, q: expected_budget(MuEll(), inst, stakes, 1, q),
    "expected_rewards": lambda inst, stakes, q: expected_rewards(MuEll(), inst, stakes, q),
    "rewards": lambda inst, stakes, q: MuEll().rewards(inst, stakes, q),
    "myopic_equilibrium": lambda inst, stakes, q: myopic_equilibrium(stakes, inst, MuEll()),
    "LookaheadSolver.solve": lambda inst, stakes, q: LookaheadSolver(inst, MuEll()).solve(stakes),
    "is_harmful": lambda inst, stakes, q: is_harmful(1, q, stakes, inst, MuEll()),
    "brute_force_equilibrium": lambda inst, stakes, q: brute_force_equilibrium(stakes, inst, MuEll()),
}

# MuAlpha(1) weighs players by type alone, and Instance.build takes any type,
# so a set can weigh <= 0, or a player below 0: the distribution and the
# suffix solvers reject either alike.
NONPOSITIVE_MU_ALPHA = {
    "winner_distribution": lambda inst, mu: winner_distribution(
        mu, inst, inst.stakes(), frozenset({1, 2})
    ),
    "myopic_equilibrium": lambda inst, mu: myopic_equilibrium(inst.stakes(), inst, mu),
    "recovery_winner_labels": lambda inst, mu: recovery_winner_labels(inst.stakes(), inst, mu),
    "LookaheadSolver.solve": lambda inst, mu: LookaheadSolver(inst, mu).solve(inst.stakes()),
}


class TestWinnerDistribution:
    def test_mu_star_point_mass(self, inst):
        dist = winner_distribution(MuStar(), inst, inst.stakes(), frozenset({1, 2, 3}))
        assert dist == {1: Fraction(1)}
        assert point_mass_winner(dist) == 1

    def test_mu_star_epsilon_mixing(self, inst):
        dist = winner_distribution(
            MuStar(epsilon=Fraction(1, 10)), inst, inst.stakes(), frozenset({1, 2, 3})
        )
        assert dist[1] == Fraction(9, 10)
        assert dist[2] == dist[3] == Fraction(1, 20)
        assert sum(dist.values()) == 1
        assert point_mass_winner(dist) is None

    def test_mu_alpha_virtual_stake(self):
        inst = make_instance([2, 1], [1, 1])
        dist = winner_distribution(
            MuAlpha(alpha=Fraction(1, 2)), inst, inst.stakes(), frozenset({1, 2})
        )
        assert dist == {1: Fraction(3, 5), 2: Fraction(2, 5)}

    def test_mu_alpha_zero_is_stake_proportional(self):
        inst = make_instance([1, 1], [3, 1])
        dist = winner_distribution(
            MuAlpha(alpha=Fraction(0)), inst, inst.stakes(), frozenset({1, 2})
        )
        assert dist == {1: Fraction(3, 4), 2: Fraction(1, 4)}

    @pytest.mark.parametrize("call", sorted(NONPOSITIVE_MU_ALPHA))
    def test_mu_alpha_rejects_a_nonpositive_weight_total(self, call):
        # suffix {2} weighs 1, but the whole set totals -6 + 1, so a suffix
        # solver fails at rank 1, whose rewards call weighs the whole set, as
        # the distribution does
        inst = make_instance([-6, 1], [3, 1])
        with pytest.raises(ValueError, match="virtual stakes sum to zero"):
            NONPOSITIVE_MU_ALPHA[call](inst, MuAlpha(alpha=Fraction(1)))

    @pytest.mark.parametrize("call", sorted(NONPOSITIVE_MU_ALPHA))
    def test_mu_alpha_rejects_a_negative_weight(self, call):
        # -3 and 7 total 4 > 0, so the total passes its check and the
        # negative weight is named
        inst = make_instance([-3, 7], [3, 1])
        with pytest.raises(ValueError, match="negative virtual stake"):
            NONPOSITIVE_MU_ALPHA[call](inst, MuAlpha(alpha=Fraction(1)))

    # Each MuAlpha rewards call checks its own set, so a solver fails only on
    # a set it prices or walks; types below 1 occur only on an instance that
    # validate_instance would reject.  Types (3, 0): rank 1 is priced over
    # {1, 2} (total 3) and is not harmed, so the myopic rank stops there,
    # while the full labeling prices {2} alone and the lookahead solve walks
    # player 1's abstention through it.  Types (3, -2): {1, 2} totals 1 and
    # holds a negative virtual stake.
    @pytest.mark.parametrize("call, low, outcome", [
        ("myopic_equilibrium", 0, frozenset({1, 2})),
        ("recovery_winner_labels", 0, "virtual stakes sum to zero"),
        ("LookaheadSolver.solve", 0, "virtual stakes sum to zero"),
        ("myopic_equilibrium", -2, "negative virtual stake"),
        ("recovery_winner_labels", -2, "virtual stakes sum to zero"),
        ("LookaheadSolver.solve", -2, "negative virtual stake"),
    ], ids=lambda x: str(x) if isinstance(x, (str, int)) else "set")
    def test_mu_alpha_checks_the_virtual_stakes_of_each_set_it_prices(self, call, low, outcome):
        inst = make_instance([3, low], [5, 1])
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=f"^{outcome}; distribution undefined$"):
                NONPOSITIVE_MU_ALPHA[call](inst, MuAlpha(alpha=Fraction(1)))
        else:
            assert NONPOSITIVE_MU_ALPHA[call](inst, MuAlpha(alpha=Fraction(1))) == outcome

    @pytest.mark.parametrize("epsilon", [Fraction(-1, 2), Fraction(3, 2)])
    def test_mu_star_rejects_an_epsilon_outside_the_unit_interval(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
            MuStar(epsilon)

    @pytest.mark.parametrize("alpha", [Fraction(-1, 2), Fraction(2)])
    def test_mu_alpha_rejects_an_alpha_outside_the_unit_interval(self, alpha):
        # MuAlpha(2) used to run, and MuAlpha(-1/2) gave a player probability 0
        with pytest.raises(ValueError, match=rf"^alpha must lie in \[0, 1\], got {alpha}$"):
            MuAlpha(alpha)

    def test_mu_all_top_type_wins(self):
        # the equal split does not hide who the recorded winner is
        inst = make_instance([1, 3, 2], [1, 1, 1])
        dist = winner_distribution(MuAll(), inst, inst.stakes(), frozenset({1, 2, 3}))
        assert point_mass_winner(dist) == 2

    def test_empty_set_raises(self, inst):
        with pytest.raises(ValueError, match="^empty participant set$"):
            winner_distribution(MuAll(), inst, inst.stakes(), frozenset())

    def test_fixed_winner_requires_participation(self, inst):
        with pytest.raises(ValueError):
            winner_distribution(FixedWinner(1), inst, inst.stakes(), frozenset({2, 3}))

    @pytest.mark.parametrize("call", sorted(UNRESOLVED_MU_ELL))
    def test_mu_ell_needs_resolution(self, inst, call):
        with pytest.raises(TypeError, match="shadow trajectory"):
            UNRESOLVED_MU_ELL[call](inst, inst.stakes(), frozenset({1, 2, 3}))


def paid(policy, inst, participants):
    """The policy's integer rewards rule over the initial stakes, as Fractions."""
    nums, den = policy.rewards(inst, inst.stakes(), frozenset(participants))
    return {pid: Fraction(num, den) for pid, num in nums.items()}


class TestBudget:
    def test_winner_takes_all(self, inst):
        assert paid(MuStar(), inst, {1, 2, 3}) == {1: Fraction(1)}

    def test_all_pay_equal_shares(self, inst):
        rewards = paid(MuAll(), inst, {1, 2, 3})
        assert rewards == {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}
        assert sum(rewards.values()) == inst.budget

    def test_epsilon_one_leaves_the_top_type_out(self, inst):
        # the top's share 1 - epsilon is zero, so she is not paid at all
        assert paid(MuStar(Fraction(1)), inst, {1, 2, 3}) == {2: Fraction(1, 2), 3: Fraction(1, 2)}

    def test_epsilon_shares_over_one_denominator(self, inst):
        nums, den = MuStar(Fraction(1, 10)).rewards(inst, inst.stakes(), frozenset({1, 2, 3}))
        assert (nums, den) == ({1: 18, 2: 1, 3: 1}, 20)

    @pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 10), Fraction(1)])
    def test_a_lone_participant_takes_the_whole_budget(self, inst, epsilon):
        assert paid(MuStar(epsilon), inst, {3}) == {3: inst.budget}

    def test_epsilon_zero_gives_the_top_the_whole_budget(self, inst):
        assert MuStar().rewards(inst, inst.stakes(), frozenset({2, 3})) == ({2: 1}, 1)

    def test_a_zero_virtual_stake_is_left_out(self):
        # MuAlpha(1) weighs by type alone, and player 1's type is 0
        inst = make_instance([0, 2], [1, 1])
        assert paid(MuAlpha(Fraction(1)), inst, {1, 2}) == {2: Fraction(1)}

    def test_fixed_winner_pays_the_budget_to_a_participating_winner(self, inst):
        assert paid(FixedWinner(2), inst, {2, 3}) == {2: inst.budget}

    def test_expected_budget_nonparticipant_is_zero(self, inst):
        assert expected_budget(MuStar(), inst, inst.stakes(), 1, frozenset({2, 3})) == 0

    def test_expected_budget_mu_all(self, inst):
        assert expected_budget(MuAll(), inst, inst.stakes(), 3, frozenset({2, 3})) == Fraction(1, 2)

    def test_fixed_winner_absent_pays_nobody(self, inst):
        rewards = expected_rewards(FixedWinner(1), inst, inst.stakes(), frozenset({2, 3}))
        assert all(v == 0 for v in rewards.values())
        assert paid(FixedWinner(1), inst, {2, 3}) == {}


class TestDrawWinner:
    def test_inverse_cdf_rank_order(self, inst):
        stakes = {1: Fraction(3), 2: Fraction(2), 3: Fraction(1)}
        dist = {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
        assert draw_winner(dist, rank(stakes), Fraction(0)) == 1
        assert draw_winner(dist, rank(stakes), Fraction(1, 2)) == 2
        assert draw_winner(dist, rank(stakes), Fraction(3, 4)) == 3
        assert draw_winner(dist, rank(stakes), Fraction(999, 1000)) == 3

    def test_u_of_one_falls_to_the_last_participant_in_rank_order(self):
        # player 3 ranks last but sits out, so the last participant is 2
        stakes = {1: Fraction(3), 2: Fraction(2), 3: Fraction(1)}
        dist = {1: Fraction(1, 2), 2: Fraction(1, 2)}
        assert draw_winner(dist, rank(stakes), Fraction(1)) == 2


class TestMuEllShadow:
    def test_winner_sequence_is_shifted_lookahead(self, inst):
        # round t crowns the winner of the planning run's round t + 1
        winners = [rec.winner for rec in run(inst, MuEll(), rounds=10).records]
        assert winners == [1, 2, 1, 3, 1, 2, 1, 3, 1, 2]
