"""The lookahead solver against a recovery walk that shares no steps.

Within one ``solve`` or ``solve_with_plans`` call the solver solves and
prices each expected stake profile its walks reach once, and so does one
lookahead ``brute_force_equilibrium`` call for its abstention walks.  The
reference below walks every plan on its own, in ``Fraction``s, calling the
per-set functions at every step, so equal results show that sharing and the
walk's integer steps change nothing: the participant set, each plan's steps
and terminal value, and which player's plan overruns the horizon cap.
"""

import csv
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

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
    """(r, plan) for each rank from the last up: r's leader leaving suffix r + 1."""
    ranking = rank(stakes)
    return [
        (r, reference_recovery(solver, ranking[r - 1], frozenset(ranking[r:]), stakes))
        for r in range(len(ranking), 0, -1)
    ]


def reference_solve(solver, stakes):
    ranking = rank(stakes)
    chosen = len(ranking)
    for r, plan in reference_rank_plans(solver, stakes):
        up = stage_utility(
            solver.instance, stakes, solver.policy, ranking[r - 1], frozenset(ranking[r - 1:])
        )
        if up >= plan.terminal_value:
            chosen = r
    return frozenset(ranking[chosen - 1:])


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
    step = solver._advance(scaled_profile(stakes), start)
    rewards = expected_rewards(solver.policy, solver.instance, stakes, start)
    want = {pid: s + rewards[pid] for pid, s in stakes.items()}
    assert dict(step) == want
    # in lowest terms, so the walk key (den, *nums) names the profile alone
    assert list(step.nums) == list(stakes)
    assert step.den == lcm(*[s.denominator for s in want.values()])


def test_a_small_cap_raises_for_the_same_player():
    vf = TableValue.from_mapping({1: 1, 2: 100, 3: 1000})
    inst = make_instance([3, 2, 1], [10, 1, 1], vf=vf)
    solver = LookaheadSolver(inst, MuAll(), horizon_cap=3)
    got = outcome(solver.solve, inst.stakes())
    assert got[:3] == ("horizon", 1, 3)
    assert got == outcome(reference_solve, solver, inst.stakes())


def n16_round_one():
    """Round 1 of ``tests/data/lookahead_n16.csv``, built as that trace is."""
    rng = random.Random(20240)
    types = [rng.randint(1, 32) for _ in range(16)]
    stakes = [rng.randint(1, 4) for _ in range(16)]
    with open(DATA / "lookahead_n16.csv", newline="") as fh:
        header, first = list(csv.reader(fh))[:2]
    assert [int(first[header.index(f"stake_{i}")]) for i in range(1, 17)] == stakes
    return make_instance(types, stakes)


def test_one_solve_solves_each_walked_profile_once(monkeypatch):
    inst = n16_round_one()
    stakes = inst.stakes()
    solver = LookaheadSolver(inst, MuStar())
    walked = [key for _, plan in reference_rank_plans(solver, stakes) for *_, key in plan.steps]
    distinct = set(walked)

    # Count kernel passes: one gives a profile's equilibrium and its price.
    calls = []

    class CountingProfile(equilibrium.RankedProfile):
        __slots__ = ()

        def __init__(self, stakes, *args, **kwargs):
            # the kernel's input: ints over one common denominator
            den = stakes.den
            calls.append(tuple(sorted((pid, Fraction(s, den)) for pid, s in stakes.nums.items())))
            super().__init__(stakes, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "RankedProfile", CountingProfile)
    participants = solver.solve(stakes)
    monkeypatch.undo()

    assert participants == reference_solve(solver, stakes)
    # the solve's own profile, then one pass per walked profile
    assert calls[0] == tuple(sorted(stakes.items()))
    walk_calls = calls[1:]
    assert len(walk_calls) == len(set(walk_calls)) == len(distinct) < len(stakes) <= len(walked)
    assert set(walk_calls) == distinct


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
            # the kernel's input: ints over one common denominator
            den = stakes.den
            calls.append(tuple(sorted((pid, Fraction(s, den)) for pid, s in stakes.nums.items())))
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
