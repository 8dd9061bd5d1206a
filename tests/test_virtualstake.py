import math
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import virtualstake
from stakegame import (
    IdentityValue,
    Instance,
    InvarianceReport,
    MuAlpha,
    Player,
    VirtualStakeState,
    check_invariance,
    expected_rewards,
    expected_step,
    incumbent_gap_state,
    sampled_win_frequencies,
    selection_probabilities,
    validate_instance,
)
from stakegame.core import virtual_stake, virtual_stake_weights


F = Fraction


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


# The constructor checks what build checks.  Each of these states used to be
# built: alpha 2 gave probabilities {1: 5/6, 2: 1/6} and a clean invariance
# report, types without player 2 dropped her silently, stakes without
# player 2 ended in a bare KeyError, and a repeated id kept its last entry.
MALFORMED_STATES = {
    "alpha above 1": (
        dict(alpha=F(2), types=((1, F(3)), (2, F(1))), stakes=((1, F(1)), (2, F(1)))),
        r"^alpha must lie in \[0, 1\], got 2$",
    ),
    "types omit a staked id": (
        dict(alpha=F(1, 2), types=((1, F(3)),), stakes=((1, F(1)), (2, F(1)))),
        "^types and stakes must cover the same players$",
    ),
    "stakes omit a typed id": (
        dict(alpha=F(1, 2), types=((1, F(3)), (2, F(1))), stakes=((1, F(1)),)),
        "^types and stakes must cover the same players$",
    ),
    "repeated id": (
        dict(alpha=F(1, 2), types=((1, F(3)), (1, F(1))), stakes=((1, F(1)), (1, F(2)))),
        "^player ids are not unique$",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STATES))
def test_the_constructor_rejects_a_malformed_state(case):
    fields, message = MALFORMED_STATES[case]
    with pytest.raises(ValueError, match=message):
        VirtualStakeState(**fields)


# Player 1's virtual stake is 1/2 - 3/2 < 0 though the total, 2, is positive:
# the selection probabilities, the dynamics and the sampler used to run on it.
NEGATIVE_STAKE = {
    "selection_probabilities": selection_probabilities,
    "check_invariance": lambda s: check_invariance(s, 3),
    "expected_step": expected_step,
    "sampled_win_frequencies": lambda s: sampled_win_frequencies(s, 100, 1),
}


@pytest.mark.parametrize("call", sorted(NEGATIVE_STAKE))
def test_a_negative_virtual_stake_is_rejected(call):
    s = state(Fraction(1, 2), {1: 1, 2: 1}, {1: -3, 2: 5})
    with pytest.raises(ValueError, match="negative virtual stake"):
        NEGATIVE_STAKE[call](s)


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


class TestTotals:
    def test_totals_are_read_from_the_stakes_and_types(self):
        s = state(Fraction(1, 4), {1: 2, 2: 6}, {1: Fraction(1, 3), 2: 2})
        assert s.total_stakes == Fraction(7, 3)
        assert s.total_weight == Fraction(1, 4) * 8 + Fraction(3, 4) * Fraction(7, 3)

    def test_totals_are_no_fields(self):
        assert [f.name for f in fields(VirtualStakeState)] == ["alpha", "types", "stakes"]
        s = state(Fraction(1, 2), {1: 2}, {1: 1})
        assert repr(s) == (
            "VirtualStakeState(alpha=Fraction(1, 2), types=((1, Fraction(2, 1)),), "
            "stakes=((1, Fraction(1, 1)),))"
        )
        with pytest.raises(AttributeError):
            s.total_stakes = Fraction(5)


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

    def test_one_player_rejected(self):
        with pytest.raises(ValueError, match="^need at least two players$"):
            incumbent_gap_state(Fraction(1, 2), {1: 3}, 10)

    def test_instance_wrapper_valid(self):
        # the gap construction as a full game: budget 1, tau 1/2, identity value
        s = incumbent_gap_state(Fraction(1, 2), {1: 3, 2: 1}, 10)
        inst = Instance.build(
            players=[Player(id=pid, type_=t) for pid, t in s.types],
            initial_stakes=s.stake_dict(),
            budget=1,
            tau_threshold=Fraction(1, 2),
            value_function=IdentityValue(),
        )
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
    with pytest.raises(ValueError, match="virtual stakes sum to zero"):
        sampled_win_frequencies(state(0, {1: 1, 2: 1}, {1: 0, 2: 0}), 3, seed=1)


@settings(max_examples=60, deadline=None)
@given(sampler_states())
def test_the_lottery_and_the_policy_weigh_alike(state_):
    # a state and an Instance given the same alpha, types and stakes
    stakes = state_.stake_dict()
    inst = Instance.build(
        players=[Player(id=pid, type_=t) for pid, t in state_.types],
        initial_stakes=stakes,
        budget=1,
        tau_threshold=F(1, 2),
        value_function=IdentityValue(),
    )
    policy = MuAlpha(alpha=state_.alpha)
    everyone = frozenset(stakes)
    assert selection_probabilities(state_) == policy.distribution(inst, stakes, everyone)
    rewards = expected_rewards(policy, inst, stakes, everyone)
    assert expected_step(state_).stake_dict() == {
        pid: s + rewards[pid] for pid, s in stakes.items()
    }


POSITIVE = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.lists(st.tuples(POSITIVE, POSITIVE), min_size=1, max_size=6),
)
def test_the_integer_weighting_scales_the_virtual_stakes(alpha, pairs):
    types = dict(enumerate(t for t, _ in pairs))
    stakes = dict(enumerate(s for _, s in pairs))
    weights, total, unit = virtual_stake_weights(alpha, types, stakes, types)
    exact = [virtual_stake(alpha, t, s) for t, s in pairs]
    assert all(isinstance(w, int) for w in weights)
    assert total == sum(weights)
    for w, v in zip(weights, exact):
        assert F(w, sum(weights)) == v / sum(exact)
        assert F(unit, w) == (1 - alpha) / v


# The weighting is the one check of the virtual stakes, and it checks the
# total first: under alpha 1 the weights are the types, so types (1, -2)
# have a total of -1 as well as a negative weight, and (3, -2) a positive
# total with a negative weight.
@pytest.mark.parametrize(
    "types, message",
    [
        ((1, -2), "virtual stakes sum to zero"),
        ((3, -2), "negative virtual stake"),
    ],
)
def test_the_integer_weighting_checks_the_total_then_each_weight(types, message):
    types = dict(enumerate(map(F, types)))
    stakes = {0: F(1), 1: F(1)}
    with pytest.raises(ValueError, match=message):
        virtual_stake_weights(F(1), types, stakes, types)


def reference_advance(state_, probs):
    """The Fraction expected step with the state's selection probabilities known."""
    stakes = state_.stake_dict()
    return VirtualStakeState(
        alpha=state_.alpha,
        types=state_.types,
        stakes=tuple(sorted((pid, stakes[pid] + probs[pid]) for pid in stakes)),
    )


def reference_step(state_):
    """One round of the Fraction expected dynamics: each stake grows by its probability."""
    return reference_advance(state_, selection_probabilities(state_))


def reference_check_invariance(state_, steps):
    """check_invariance on Fractions: rebuild every state, sum its totals, compare."""
    if steps < 1:
        raise ValueError("need at least one step")
    report = InvarianceReport(steps=steps)
    reference = probs = selection_probabilities(state_)
    current = state_
    for step in range(1, steps + 1):
        nxt = reference_advance(current, probs)
        # the vector checked here is the one the next step advances by
        probs = selection_probabilities(nxt)
        if probs != reference:
            report.probability_breaks.append(step)
        if nxt.total_stakes != current.total_stakes + 1:
            report.stake_recurrence_breaks.append(step)
        if nxt.total_weight != current.total_weight + (1 - state_.alpha):
            report.weight_recurrence_breaks.append(step)
        current = nxt
    return report


@st.composite
def dynamics_states(draw):
    """2-5 players, alpha in [0, 1] with both ends drawn explicitly, fractional
    types and stakes, given in any order as a hand-built state may be."""
    n = draw(st.integers(2, 5))
    alpha = draw(st.one_of(
        st.sampled_from([F(0), F(1)]),
        st.fractions(min_value=0, max_value=1, max_denominator=12),
    ))
    types = [(pid, draw(POSITIVE)) for pid in range(1, n + 1)]
    stakes = [(pid, draw(POSITIVE)) for pid in range(1, n + 1)]
    return VirtualStakeState(
        alpha=alpha,
        types=tuple(draw(st.permutations(types))),
        stakes=tuple(draw(st.permutations(stakes))),
    )


@pytest.mark.reseed
@settings(max_examples=100, deadline=None)
@given(dynamics_states(), st.integers(1, 6))
def test_expected_step_matches_the_fraction_reference(state_, k):
    got = want = state_
    for _ in range(k):
        got, want = expected_step(got), reference_step(want)
        assert got == want
        assert got.types == state_.types
        assert [pid for pid, _ in got.stakes] == sorted(pid for pid, _ in state_.stakes)


@pytest.mark.reseed
@settings(max_examples=100, deadline=None)
@given(dynamics_states(), st.integers(1, 30))
def test_check_invariance_matches_the_fraction_reference(state_, steps):
    report = check_invariance(state_, steps)
    assert report == reference_check_invariance(state_, steps)
    assert report.ok


@pytest.mark.parametrize("alpha", [F(0), F(3, 8), F(1)])
def test_a_perturbed_step_is_reported(monkeypatch, alpha):
    # At step j the integer step gives player 1 one unit of stake too many.
    # From there the dynamics run on, so the stake total breaks at j alone,
    # and the probabilities stay at their perturbed values.
    j, steps = 4, 9
    step, calls = virtualstake._step, iter(range(1, steps + 1))

    def perturbed(*args):
        stakes, den = step(*args)
        if next(calls) == j:
            stakes = [stakes[0] + den] + stakes[1:]
        return stakes, den

    monkeypatch.setattr(virtualstake, "_step", perturbed)
    report = check_invariance(state(alpha, {1: 2, 2: 1, 3: 3}, {1: 1, 2: F(1, 2), 3: 2}), steps)
    assert report.stake_recurrence_breaks == [j]
    if alpha < 1:
        assert report.probability_breaks == list(range(j, steps + 1))
        assert report.weight_recurrence_breaks == [j]
    else:
        # at alpha = 1 the weights do not read the stakes
        assert report.probability_breaks == report.weight_recurrence_breaks == []
