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
    winner_distribution,
)
from stakegame.engine import MuEllShadow
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
    "myopic_equilibrium": lambda inst, stakes, q: myopic_equilibrium(stakes, inst, MuEll()),
    "LookaheadSolver.solve": lambda inst, stakes, q: LookaheadSolver(inst, MuEll()).solve(stakes),
    "is_harmful": lambda inst, stakes, q: is_harmful(1, q, stakes, inst, MuEll()),
    "brute_force_equilibrium": lambda inst, stakes, q: brute_force_equilibrium(stakes, inst, MuEll()),
}


class TestWinnerDistribution:
    def test_mu_star_point_mass(self, inst):
        dist = winner_distribution(MuStar(), inst, inst.stakes(), frozenset({1, 2, 3}))
        assert dist == {1: Fraction(1), 2: Fraction(0), 3: Fraction(0)}
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

    def test_mu_all_top_type_wins(self):
        # the equal split does not hide who the recorded winner is
        inst = make_instance([1, 3, 2], [1, 1, 1])
        dist = winner_distribution(MuAll(), inst, inst.stakes(), frozenset({1, 2, 3}))
        assert point_mass_winner(dist) == 2

    def test_fixed_winner_requires_participation(self, inst):
        with pytest.raises(ValueError):
            winner_distribution(FixedWinner(1), inst, inst.stakes(), frozenset({2, 3}))

    @pytest.mark.parametrize("call", sorted(UNRESOLVED_MU_ELL))
    def test_mu_ell_needs_resolution(self, inst, call):
        with pytest.raises(TypeError, match="shadow trajectory"):
            UNRESOLVED_MU_ELL[call](inst, inst.stakes(), frozenset({1, 2, 3}))


class TestBudget:
    def test_winner_takes_all(self, inst):
        everyone = frozenset({1, 2, 3})
        dist = winner_distribution(MuStar(), inst, inst.stakes(), everyone)
        assert MuStar().payout(inst, everyone, dist) == {1: Fraction(1)}

    def test_all_pay_equal_shares(self, inst):
        everyone = frozenset({1, 2, 3})
        dist = winner_distribution(MuAll(), inst, inst.stakes(), everyone)
        rewards = MuAll().payout(inst, everyone, dist)
        assert rewards == {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}
        assert sum(rewards.values()) == inst.budget

    def test_expected_budget_nonparticipant_is_zero(self, inst):
        assert expected_budget(MuStar(), inst, inst.stakes(), 1, frozenset({2, 3})) == 0

    def test_expected_budget_mu_all(self, inst):
        assert expected_budget(MuAll(), inst, inst.stakes(), 3, frozenset({2, 3})) == Fraction(1, 2)

    def test_fixed_winner_absent_pays_nobody(self, inst):
        rewards = expected_rewards(FixedWinner(1), inst, inst.stakes(), frozenset({2, 3}))
        assert all(v == 0 for v in rewards.values())


class TestDrawWinner:
    def test_inverse_cdf_rank_order(self, inst):
        stakes = {1: Fraction(3), 2: Fraction(2), 3: Fraction(1)}
        dist = {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
        assert draw_winner(dist, stakes, Fraction(0)) == 1
        assert draw_winner(dist, stakes, Fraction(1, 2)) == 2
        assert draw_winner(dist, stakes, Fraction(3, 4)) == 3
        assert draw_winner(dist, stakes, Fraction(999, 1000)) == 3


class TestMuEllShadow:
    def test_winner_sequence_is_shifted_lookahead(self, inst):
        # shadow run winners start at the planning run's second round
        shadow = MuEllShadow(inst)
        winners = [shadow.next_winner() for _ in range(10)]
        assert winners == [1, 2, 1, 3, 1, 2, 1, 3, 1, 2]
