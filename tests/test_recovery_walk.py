"""The lookahead solver against a recovery walk that shares no steps.

Within one ``solve`` or ``solve_with_plans`` call the solver solves and
prices each expected stake profile its walks reach once, and so does one
lookahead ``brute_force_equilibrium`` call for its abstention walks.  The
reference below walks every plan on its own, in ``Fraction``s, calling the
per-set functions at every step, and scans the ranks in the solve's order,
from the top down to the decisive rank.  Equal results show that sharing
and the walk's integer steps change nothing: the participant set, each
plan's steps and terminal value, and which player's plan overruns the
horizon cap.
"""

import csv
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import (
    FixedWinner,
    IdentityValue,
    LookaheadHorizonError,
    LookaheadSolver,
    MuAll,
    MuAlpha,
    MuStar,
    TableValue,
    brute_force_equilibrium,
    expected_rewards,
    myopic_equilibrium,
    rank,
)
from stakegame import equilibrium
from stakegame.core import scaled_profile
from stakegame.equilibrium import RecoveryPlan, stage_utility, stage_value

from conftest import make_instance

# CI draws every test here again on more hypothesis seeds
pytestmark = pytest.mark.reseed

DATA = Path(__file__).resolve().parent / "data"
STAKES = st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(1, 2), Fraction(5, 3),
     Fraction(10)]
)
TAUS = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20)
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=8)


def policies(n, epsilons=UNIT):
    return st.one_of(
        st.builds(MuStar, epsilons),
        st.just(MuAll()),
        st.builds(MuAlpha, UNIT),
        st.builds(FixedWinner, st.integers(1, n)),
    )


def reference_recovery(solver, i, participants, stakes):
    inst, policy = solver.instance, solver.policy
    current = dict(stakes)
    steps = []
    for offset in range(1, solver.horizon_cap + 1):
        rewards = expected_rewards(policy, inst, current, participants)
        current = {pid: s + rewards[pid] for pid, s in current.items()}
        future = myopic_equilibrium(current, inst, policy)
        steps.append((offset, future, tuple(sorted(current.items()))))
        if i in future:
            _, v = stage_value(inst, current, future)
            return RecoveryPlan(i, tuple(steps), current[i] * v)
        participants = future
    raise LookaheadHorizonError(i, stakes, solver.horizon_cap)


def reference_rank_plans(solver, stakes):
    """(r, plan) for each rank the scan walks: r's leader leaving to suffix r + 1.

    The scan runs from the top rank down and stops at the first rank whose
    leader is non-harmful, the decisive rank; with none, it walks every rank.
    """
    ranking = rank(stakes)
    walked = []
    for r in range(1, len(ranking) + 1):
        leader = ranking[r - 1]
        plan = reference_recovery(solver, leader, frozenset(ranking[r:]), stakes)
        walked.append((r, plan))
        up = stage_utility(
            solver.instance, stakes, solver.policy, leader, frozenset(ranking[r - 1:])
        )
        if up >= plan.terminal_value:
            break
    return walked


def reference_solve(solver, stakes):
    """The suffix of the last rank walked: the decisive rank, or rank n when none is."""
    r, _ = reference_rank_plans(solver, stakes)[-1]
    return frozenset(rank(stakes)[r - 1:])


def reference_solve_with_plans(solver, stakes):
    participants = reference_solve(solver, stakes)
    plans = {
        pid: reference_recovery(solver, pid, participants, stakes)
        for pid in stakes
        if pid not in participants
    }
    return participants, plans


def outcome(solve, *args):
    """The result, or the player and cap of the horizon error raised."""
    try:
        return "ok", solve(*args)
    except LookaheadHorizonError as exc:
        return "horizon", exc.player, exc.cap, exc.stakes


@st.composite
def value_functions(draw, n, steep):
    """Identity, or a table of token values by level.

    A steep table (value 1 at level 1, 101 at level 2) with a dominant stake
    keeps the dominant player out of the myopic suffix, so her recovery plan
    runs long and small horizon caps are hit.
    """
    if not steep and draw(st.booleans()):
        return IdentityValue()
    steps = draw(st.lists(st.sampled_from([0, 1, 3, 100]), min_size=n, max_size=n))
    if steep:
        steps[:2] = [0, 100]
    return TableValue.from_mapping({d: 1 + sum(steps[:d]) for d in range(1, n + 1)})


@st.composite
def lookahead_cases(draw, caps, steep=False):
    n = draw(st.integers(2 if steep else 1, 7))
    stakes = draw(st.lists(STAKES, min_size=n, max_size=n))
    if steep:
        stakes[0] = Fraction(10 * n)
    inst = make_instance(
        draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
        stakes,
        budget=draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3)])),
        tau=draw(TAUS),
        vf=draw(value_functions(n, steep)),
    )
    policy = draw(policies(n, UNIT.filter(lambda e: e < 1)))
    solver = LookaheadSolver(inst, policy, horizon_cap=draw(caps))
    return solver, inst.stakes()


def assert_matches_the_reference(solver, stakes):
    assert outcome(solver.solve, stakes) == outcome(reference_solve, solver, stakes)
    assert outcome(solver.solve_with_plans, stakes) == outcome(
        reference_solve_with_plans, solver, stakes
    )


@settings(max_examples=80, deadline=None)
@given(lookahead_cases(st.just(50)))
def test_solve_matches_the_unshared_walk(case):
    assert_matches_the_reference(*case)


@settings(max_examples=80, deadline=None)
@given(lookahead_cases(st.integers(1, 3), steep=True))
def test_horizon_errors_match_the_unshared_walk(case):
    assert_matches_the_reference(*case)


# Fractional types, stakes and budgets with coprime denominators.
RATIONALS = st.fractions(min_value=1, max_value=9, max_denominator=7)


@st.composite
def step_cases(draw):
    """A solver and a non-empty start set, often not a suffix of the ranking."""
    n = draw(st.integers(1, 7))
    inst = make_instance(
        draw(st.lists(RATIONALS, min_size=n, max_size=n)),
        draw(st.lists(RATIONALS, min_size=n, max_size=n)),
        budget=draw(RATIONALS),
    )
    start = frozenset(draw(st.sets(st.integers(1, n), min_size=1)))
    return LookaheadSolver(inst, draw(policies(n))), start


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_an_integer_step_adds_the_expected_rewards(case):
    solver, start = case
    stakes = solver.instance.stakes()
    current = scaled_profile(stakes)
    step = current.plus(*solver.policy.rewards(solver.instance, current, start))
    rewards = expected_rewards(solver.policy, solver.instance, stakes, start)
    want = {pid: s + rewards[pid] for pid, s in stakes.items()}
    assert {pid: Fraction(s, step.den) for pid, s in step.nums.items()} == want
    # in lowest terms, so the walk key (den, *nums) names the profile alone
    assert list(step.nums) == list(stakes)
    assert step.den == lcm(*[s.denominator for s in want.values()])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True),
    st.data(),
    st.integers(1, 60),
)
def test_plus_is_the_fraction_sum_in_lowest_terms(ids, data, paid_den):
    stakes = {
        pid: data.draw(st.fractions(min_value=Fraction(1, 60), max_value=60, max_denominator=60))
        for pid in ids
    }
    paid_ids = data.draw(st.sets(st.sampled_from(ids)))
    paid = {pid: data.draw(st.integers(0, 120)) for pid in paid_ids}
    start = scaled_profile(stakes)
    before = dict(start.nums), start.den
    step = start.plus(paid, paid_den)
    want = {pid: s + Fraction(paid.get(pid, 0), paid_den) for pid, s in stakes.items()}
    assert {pid: Fraction(s, step.den) for pid, s in step.nums.items()} == want
    # the walk key (den, *nums) names the profile: same id order, lowest terms
    assert list(step.nums) == ids
    assert step.den == lcm(*[s.denominator for s in want.values()])
    # the start is left as it was: the walks of one solve share it
    assert (start.nums, start.den) == before


def test_a_small_cap_raises_for_the_same_player():
    vf = TableValue.from_mapping({1: 1, 2: 100, 3: 1000})
    inst = make_instance([3, 2, 1], [10, 1, 1], vf=vf)
    solver = LookaheadSolver(inst, MuAll(), horizon_cap=3)
    got = outcome(solver.solve, inst.stakes())
    assert got[:3] == ("horizon", 1, 3)
    assert got == outcome(reference_solve, solver, inst.stakes())


@pytest.mark.parametrize("types, stakes, values, tau, budget, policy, cap, want", [
    # rank 1 decides; rank 2's plan (player 3) overruns the cap but is not walked
    ((2, 2, 4, 3, 3, 4), (60, Fraction(1, 2), 10, Fraction(1, 2), 3, Fraction(1, 2)),
     (1, 101, 102, 202, 205, 206), Fraction(9, 10), 3, FixedWinner(3), 1,
     ("ok", frozenset(range(1, 7)))),
    # ranks 1 and 2 both overrun the cap: the error names the top one
    ((3, 4, 4, 2, 2, 4), (60, 1, 1, 4, 1, 1),
     (1, 101, 201, 201, 202, 205), Fraction(1, 2), 1, MuAll(), 3,
     ("horizon", 1)),
], ids=["an unwalked rank overruns", "two walked ranks overrun"])
def test_a_solve_raises_only_for_a_rank_it_walks(types, stakes, values, tau, budget, policy,
                                                 cap, want):
    vf = TableValue.from_mapping(dict(enumerate(values, start=1)))
    inst = make_instance(types, stakes, budget=budget, tau=tau, vf=vf)
    solver = LookaheadSolver(inst, policy, horizon_cap=cap)
    got = outcome(solver.solve, inst.stakes())
    assert got[:2] == want
    assert got == outcome(reference_solve, solver, inst.stakes())


def n16_rounds():
    """Each round of ``tests/data/lookahead_n16.csv``, built as that trace is.

    Yields the instance at the round's stakes before and the participants
    the round recorded.
    """
    rng = random.Random(20240)
    types = [rng.randint(1, 32) for _ in range(16)]
    stakes = [rng.randint(1, 4) for _ in range(16)]
    with open(DATA / "lookahead_n16.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(rows[0][f"stake_{i}"]) for i in range(1, 17)] == stakes
    for row in rows:
        before = [Fraction(row[f"stake_{i}"]) for i in range(1, 17)]
        yield make_instance(types, before), frozenset(map(int, row["participants"].split(",")))


def test_one_solve_solves_each_walked_profile_once(monkeypatch):
    """The first round of ``lookahead_n16.csv`` whose scan walks more than one rank.

    That is round 9, where rank 1 is harmful and rank 2 decides; both walks
    reach the same profile, which the solve passes through the kernel once.
    """
    for inst, _ in n16_rounds():
        stakes = inst.stakes()
        solver = LookaheadSolver(inst, MuStar())
        plans = reference_rank_plans(solver, stakes)
        if len(plans) > 1:
            break
    walked = [key for _, plan in plans for *_, key in plan.steps]
    distinct = set(walked)

    # Count kernel passes: one gives a profile's equilibrium and its price.
    calls = []

    class CountingProfile(equilibrium.RankedProfile):
        __slots__ = ()

        def __init__(self, stakes, *args, **kwargs):
            # the kernel's input, as the kernel reads it: ints over one common denominator
            scaled = scaled_profile(stakes)
            calls.append(tuple(sorted(
                (pid, Fraction(s, scaled.den)) for pid, s in scaled.nums.items()
            )))
            super().__init__(stakes, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "RankedProfile", CountingProfile)
    participants = solver.solve(stakes)
    monkeypatch.undo()

    assert participants == reference_solve(solver, stakes)
    # the solve's own profile, then one pass per walked profile
    assert calls[0] == tuple(sorted(stakes.items()))
    walk_calls = calls[1:]
    assert len(walk_calls) == len(set(walk_calls)) == len(distinct) < len(walked)
    assert len(walked) >= len(plans) > 1
    assert set(walk_calls) == distinct


def test_a_solve_walks_the_leaders_down_to_the_decisive_rank(monkeypatch):
    """Replaying ``lookahead_n16.csv``, each solve walks ranks 1..r and no other.

    With the recorded set the suffix of rank r = n - |participants| + 1,
    that is 17 walks over the 16 rounds: round 9 walks two ranks, every
    other round one.  Walking every rank would take 256.
    """
    walks = []
    recovery = LookaheadSolver._recovery

    def counting_recovery(self, i, *args):
        walks.append(i)
        return recovery(self, i, *args)

    monkeypatch.setattr(LookaheadSolver, "_recovery", counting_recovery)
    total = 0
    for inst, recorded in n16_rounds():
        walks.clear()
        stakes = inst.stakes()
        assert LookaheadSolver(inst, MuStar()).solve(stakes) == recorded
        assert tuple(walks) == rank(stakes)[: inst.n - len(recorded) + 1]
        total += len(walks)
    assert total == 17


def test_one_lookahead_oracle_call_solves_each_walked_profile_once(monkeypatch):
    inst = make_instance([4, 3, 2, 1, 5], [3, 1, 2, 6, 1])
    stakes = inst.stakes()
    solver = LookaheadSolver(inst, MuStar())

    # record the abstention walks the oracle starts, and count kernel passes
    starts, calls = [], []
    recovery = LookaheadSolver._recovery

    def recording_recovery(self, i, participants, *args):
        starts.append((i, participants))
        return recovery(self, i, participants, *args)

    class CountingProfile(equilibrium.RankedProfile):
        __slots__ = ()

        def __init__(self, stakes, *args, **kwargs):
            # the kernel's input, as the kernel reads it: ints over one common denominator
            scaled = scaled_profile(stakes)
            calls.append(tuple(sorted(
                (pid, Fraction(s, scaled.den)) for pid, s in scaled.nums.items()
            )))
            super().__init__(stakes, *args, **kwargs)

    monkeypatch.setattr(LookaheadSolver, "_recovery", recording_recovery)
    monkeypatch.setattr(equilibrium, "RankedProfile", CountingProfile)
    found = brute_force_equilibrium(stakes, inst, MuStar(), behavior="lookahead")
    monkeypatch.undo()

    assert found
    walked = [
        key
        for i, participants in starts
        for *_, key in reference_recovery(solver, i, participants, stakes).steps
    ]
    # every kernel pass is a walk step, and no walked profile is solved twice
    assert len(calls) == len(set(calls)) == len(set(walked)) < len(walked)
    assert set(calls) == set(walked)
