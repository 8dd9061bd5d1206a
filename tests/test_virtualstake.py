import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import (
    VirtualStakeState,
    check_invariance,
    expected_step,
    incumbent_gap_state,
    sampled_win_frequencies,
    selection_probabilities,
    theorem6_counterexample,
    validate_instance,
)


def state(alpha, types, stakes):
    return VirtualStakeState.build(alpha, types, stakes)


class TestSelectionProbabilities:
    def test_half_half(self):
        s = state(Fraction(1, 2), {1: 2, 2: 1}, {1: 1, 2: 1})
        assert selection_probabilities(s) == {1: Fraction(3, 5), 2: Fraction(2, 5)}

    def test_pure_type(self):
        s = state(1, {1: 2, 2: 1}, {1: 7, 2: 1})
        assert selection_probabilities(s) == {1: Fraction(2, 3), 2: Fraction(1, 3)}

    def test_pure_stake(self):
        s = state(0, {1: 9, 2: 9}, {1: 3, 2: 1})
        assert selection_probabilities(s) == {1: Fraction(3, 4), 2: Fraction(1, 4)}

    def test_sums_to_one(self):
        s = state("1/3", {1: 4, 2: 2, 3: 1}, {1: "1/2", 2: 5, 3: 2})
        assert sum(selection_probabilities(s).values()) == 1

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            state(2, {1: 1}, {1: 1})


class TestExpectedStep:
    def test_worked_example(self):
        s = state(Fraction(1, 2), {1: 2, 2: 1}, {1: 1, 2: 1})
        nxt = expected_step(s)
        assert nxt.stake_dict() == {1: Fraction(8, 5), 2: Fraction(7, 5)}
        assert nxt.total_stakes == s.total_stakes + 1
        assert nxt.total_weight == s.total_weight + Fraction(1, 2)

    def test_pure_type_growth(self):
        s = state(1, {1: 2, 2: 1}, {1: 5, 2: 5})
        nxt = expected_step(s)
        assert nxt.stake_dict()[1] == 5 + Fraction(2, 3)

    def test_probabilities_invariant(self):
        s = state(Fraction(1, 2), {1: 2, 2: 1}, {1: 1, 2: 1})
        w0 = selection_probabilities(s)
        assert selection_probabilities(expected_step(expected_step(s))) == w0


class TestInvariance:
    def test_hundred_steps(self):
        s = state(Fraction(1, 2), {1: 2, 2: 1}, {1: 1, 2: 1})
        assert check_invariance(s, 100).ok

    def test_random_triples(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 5)
            s = state(
                Fraction(rng.randint(0, 4), 4),
                {i: rng.randint(1, 9) for i in range(1, n + 1)},
                {i: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for i in range(1, n + 1)},
            )
            assert check_invariance(s, 50).ok

    def test_alpha_one_weight_constant(self):
        s = state(1, {1: 2, 2: 1}, {1: 1, 2: 1})
        nxt = expected_step(s)
        assert nxt.total_weight == s.total_weight

    def test_steps_guard(self):
        s = state(0, {1: 1}, {1: 1})
        with pytest.raises(ValueError):
            check_invariance(s, 0)


class TestGapConstruction:
    def test_worked_values(self):
        s = incumbent_gap_state(Fraction(1, 2), {1: 3, 2: 1}, 100)
        assert s.stake_dict() == {1: Fraction(1), 2: Fraction(102)}
        shares = selection_probabilities(s)
        assert shares[2] > shares[1]

    def test_top_share_decreases_in_m(self):
        previous = None
        for m in (10, 100, 1000):
            s = incumbent_gap_state(Fraction(1, 2), {1: 3, 2: 1}, m)
            top = selection_probabilities(s)[1]
            if previous is not None:
                assert top < previous
            previous = top

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            incumbent_gap_state(1, {1: 3, 2: 1}, 10)

    def test_instance_wrapper_valid(self):
        inst, s = theorem6_counterexample(Fraction(1, 2), {1: 3, 2: 1}, 10)
        assert validate_instance(inst).ok
        assert inst.stakes() == s.stake_dict()


class TestSampled:
    def test_frequencies_close_to_probabilities(self):
        # large stakes keep the urn drift far below the sampling tolerance
        s = state(Fraction(1, 2), {1: 2, 2: 1}, {1: 300000, 2: 200000})
        n = 20000
        w = selection_probabilities(s)
        freq = sampled_win_frequencies(s, n, seed=7)
        for pid in w:
            tol = 3 * math.sqrt(float(w[pid] * (1 - w[pid])) / n)
            assert abs(float(freq[pid] - w[pid])) <= tol

    def test_rounds_guard(self):
        s = state(0, {1: 1}, {1: 1})
        with pytest.raises(ValueError):
            sampled_win_frequencies(s, 0, seed=1)


def per_round_frequencies(state_, rounds, seed):
    """The sampler as a per-round loop: rebuild the state, divide by the total."""
    rng = random.Random(seed)
    stakes = state_.stake_dict()
    wins = {pid: 0 for pid in stakes}
    order = sorted(stakes)
    current = state_
    for _ in range(rounds):
        probs = selection_probabilities(current)
        u = Fraction(rng.random())
        running = Fraction(0)
        winner = order[-1]
        for pid in order:
            running += probs[pid]
            if u < running:
                winner = pid
                break
        wins[winner] += 1
        stakes = current.stake_dict()
        stakes[winner] += 1
        current = VirtualStakeState(
            alpha=state_.alpha, types=state_.types, stakes=tuple(sorted(stakes.items()))
        )
    return {pid: Fraction(wins[pid], rounds) for pid in wins}


F = Fraction
# (alpha, types, stakes, seed) -> frequencies over 120 rounds, recorded with
# the per-round sampler above.
PINNED_SAMPLES = [
    ((F(0), {1: 2, 2: 1}, {1: F(3, 2), 2: F(5, 4)}, 11),
     {1: F(103, 120), 2: F(17, 120)}),
    ((F(3, 8), {1: 4, 2: 1, 3: 2}, {1: F(1, 3), 2: F(7, 2), 3: F(2)}, 12),
     {1: F(7, 20), 2: F(31, 60), 3: F(2, 15)}),
    ((F(1), {1: 1, 2: 3, 3: 2, 4: 5}, {1: F(9, 4), 2: F(1, 2), 3: F(5, 3), 4: F(1)}, 13),
     {1: F(1, 15), 2: F(13, 40), 3: F(11, 60), 4: F(17, 40)}),
    ((F(3, 8), {1: 2, 2: 2, 3: 7, 4: 1, 5: 3},
      {1: F(5, 2), 2: F(1, 7), 3: F(3), 4: F(11, 3), 5: F(2, 5)}, 14),
     {1: F(7, 40), 2: F(7, 60), 3: F(11, 30), 4: F(4, 15), 5: F(3, 40)}),
    ((F(0), {1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
      {1: F(1, 5), 2: F(2, 5), 3: F(3, 5), 4: F(4, 5), 5: F(6, 5)}, 15),
     {1: F(13, 60), 2: F(13, 120), 3: F(1, 12), 4: F(11, 120), 5: F(1, 2)}),
    ((F(1), {1: 3, 2: 1}, {1: F(1, 9), 2: F(8, 9)}, 16),
     {1: F(19, 24), 2: F(5, 24)}),
]


@pytest.mark.parametrize("case, expected", PINNED_SAMPLES)
def test_sampled_frequencies_pinned(case, expected):
    alpha, types, stakes, seed = case
    assert sampled_win_frequencies(state(alpha, types, stakes), 120, seed) == expected


@st.composite
def sampler_states(draw):
    n = draw(st.integers(1, 5))
    ids = range(1, n + 1)
    unit = st.fractions(min_value=0, max_value=1, max_denominator=8)
    stake = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
    return state(
        draw(st.one_of(st.sampled_from([F(0), F(3, 8), F(1)]), unit)),
        {pid: draw(st.integers(1, 9)) for pid in ids},
        {pid: draw(stake) for pid in ids},
    )


@settings(max_examples=60, deadline=None)
@given(sampler_states(), st.integers(1, 60), st.integers(0, 2**32))
def test_sampler_matches_the_per_round_loop(state_, rounds, seed):
    assert sampled_win_frequencies(state_, rounds, seed) == per_round_frequencies(
        state_, rounds, seed
    )


def test_sampler_rejects_a_zero_total_weight():
    with pytest.raises(ValueError, match="positive"):
        sampled_win_frequencies(state(0, {1: 1, 2: 1}, {1: 0, 2: 0}), 3, seed=1)
