"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or when
the file is executed directly).  Tolerances are zero everywhere except the
sampled-frequency check, which uses the three-sigma binomial bound.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import conftest

from stakegame import (
    IdentityValue,
    Instance,
    MuAll,
    MuEll,
    MuStar,
    Player,
    VirtualStakeState,
    brute_force_equilibrium,
    check_decentralization_axioms,
    check_invariance,
    incumbent_gap_state,
    is_harmful,
    max_sybil_gain,
    monitor_properties,
    myopic_equilibrium,
    rank,
    run,
    sampled_win_frequencies,
    selection_probabilities,
    sybil_proofness_condition,
    tau_index_measure,
    threshold,
    token_value,
)


def report(number, ok, label):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} {status}: {label}"
    print(line)
    # also queue the line for the end-of-run summary, which pytest prints
    # after capture is torn down, so it survives the default capture mode
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number} failed: {label}"


def example_instance():
    players = [
        Player(id=1, type_=Fraction(3)),
        Player(id=2, type_=Fraction(2)),
        Player(id=3, type_=Fraction(1)),
    ]
    return Instance.build(
        players=players,
        initial_stakes={1: 1, 2: 1, 3: 1},
        budget=1,
        tau_threshold=Fraction(1, 2),
        value_function=IdentityValue(),
    )


def row(rec):
    before = tuple(v for _, v in rec.stakes_before)
    after = tuple(v for _, v in rec.stakes_after)
    return (before, frozenset(rec.participants), rec.d, rec.winner, after)


MYOPIC_ROWS = [
    ((1, 1, 1), frozenset({1, 2, 3}), 2, 1, (2, 1, 1)),
    ((2, 1, 1), frozenset({1, 2, 3}), 2, 1, (3, 1, 1)),
    ((3, 1, 1), frozenset({2, 3}), 2, 2, (3, 2, 1)),
    ((3, 2, 1), frozenset({1, 2, 3}), 2, 1, (4, 2, 1)),
    ((4, 2, 1), frozenset({1, 2, 3}), 1, 1, (5, 2, 1)),
]

LOOKAHEAD_ROWS = MYOPIC_ROWS[:4] + [
    ((4, 2, 1), frozenset({3}), 1, 3, (4, 2, 2)),
    ((4, 2, 2), frozenset({1, 2, 3}), 2, 1, (5, 2, 2)),
    ((5, 2, 2), frozenset({2, 3}), 2, 2, (5, 3, 2)),
    ((5, 3, 2), frozenset({1, 2, 3}), 2, 1, (6, 3, 2)),
    ((6, 3, 2), frozenset({3}), 1, 3, (6, 3, 3)),
    ((6, 3, 3), frozenset({1, 2, 3}), 2, 1, (7, 3, 3)),
]

SIMULATING_ROWS = [
    ((1, 1, 1), 1, (2, 1, 1)),
    ((2, 1, 1), 2, (2, 2, 1)),
    ((2, 2, 1), 1, (3, 2, 1)),
    ((3, 2, 1), 3, (3, 2, 2)),
    ((3, 2, 2), 1, (4, 2, 2)),
    ((4, 2, 2), 2, (4, 3, 2)),
    ((4, 3, 2), 1, (5, 3, 2)),
    ((5, 3, 2), 3, (5, 3, 3)),
    ((5, 3, 3), 1, (6, 3, 3)),
    ((6, 3, 3), 2, (6, 4, 3)),
]


@pytest.fixture(scope="module")
def lookahead_trace_1000():
    return run(example_instance(), MuStar(), behavior="lookahead", rounds=1000)


def test_criterion_01_myopic_table():
    start = time.monotonic()
    trace = run(example_instance(), MuStar(), behavior="myopic", rounds=1000)
    ok = [row(r) for r in trace.records[:5]] == MYOPIC_ROWS
    ok = ok and all(r.d == 1 and r.winner == 1 for r in trace.records[4:])
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 2.0,
           f"myopic run reproduces the worked table and centralizes ({elapsed:.2f}s)")


def test_criterion_02_lookahead_table():
    start = time.monotonic()
    trace = run(example_instance(), MuStar(), behavior="lookahead", rounds=10)
    ok = [row(r) for r in trace.records] == LOOKAHEAD_ROWS
    ok = ok and trace.records[4].participants == frozenset({3})
    ok = ok and trace.records[8].participants == frozenset({3})
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 2.0,
           f"planning players reproduce the worked table with sit-out rounds ({elapsed:.2f}s)")


def test_criterion_03_simulating_table():
    trace = run(example_instance(), MuEll(), behavior="myopic", rounds=10)
    ok = all(
        (tuple(v for _, v in rec.stakes_before), rec.winner,
         tuple(v for _, v in rec.stakes_after)) == expected
        and rec.participants == frozenset({1, 2, 3})
        and rec.d == 2
        for rec, expected in zip(trace.records, SIMULATING_ROWS)
    )
    lookahead = run(example_instance(), MuStar(), behavior="lookahead", rounds=11)
    shifted = [r.winner for r in lookahead.records[1:]]
    ok = ok and [r.winner for r in trace.records] == shifted
    report(3, ok, "simulating policy keeps full participation; winners shift by one round")


def test_criterion_04_axioms():
    start = time.monotonic()
    ok = True
    for tau in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        ok = ok and check_decentralization_axioms(
            tau_index_measure(tau), 4, [1, 2, 3, 4]
        ).ok
    elapsed = time.monotonic() - start
    report(4, ok and elapsed < 10.0,
           f"index satisfies both measure conditions exhaustively ({elapsed:.2f}s)")


def test_criterion_05_oracle_agreement():
    rng = random.Random(7)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 5)
        players = [Player(id=i + 1, type_=Fraction(rng.randint(1, 6))) for i in range(n)]
        # stakes >= 3 keep the instance in the aligned regime where the
        # suffix equilibrium is provably unique
        stakes = {i + 1: Fraction(rng.randint(3, 6)) for i in range(n)}
        instance = Instance.build(players, stakes, budget=1,
                                  tau_threshold=Fraction(1, 2),
                                  value_function=IdentityValue())
        policy = MuStar() if rng.random() < 0.5 else MuAll()
        eq = myopic_equilibrium(stakes, instance, policy)
        if brute_force_equilibrium(stakes, instance, policy) != [eq]:
            ok = False
            break
    report(5, ok, "solver matches the exhaustive oracle's unique equilibrium, 200 instances")


def test_criterion_06_smallest_ranks_never_harmful():
    rng = random.Random(11)
    ok = True
    for _ in range(1000):
        n = rng.randint(2, 5)
        players = [Player(id=i + 1, type_=Fraction(rng.randint(1, 6))) for i in range(n)]
        stakes = {i + 1: Fraction(rng.randint(1, 9), rng.randint(1, 2)) for i in range(n)}
        instance = Instance.build(players, stakes, budget=1,
                                  tau_threshold=Fraction(1, 2),
                                  value_function=IdentityValue())
        policy = MuStar() if rng.random() < 0.5 else MuAll()
        ranking = rank(stakes)
        for r in (n, n - 1):
            verdict = is_harmful(ranking[r - 1], frozenset(ranking[r - 1 :]),
                                 stakes, instance, policy)
            if verdict.harmful:
                ok = False
    report(6, ok, "the two smallest stakes are never harmed by participating, 1000 profiles")


def test_criterion_07_invariance_and_sampling():
    rng = random.Random(13)
    ok = True
    for _ in range(100):
        n = rng.randint(2, 5)
        state = VirtualStakeState.build(
            Fraction(rng.randint(0, 8), 8),
            {i: rng.randint(1, 9) for i in range(1, n + 1)},
            {i: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for i in range(1, n + 1)},
        )
        if not check_invariance(state, 100).ok:
            ok = False
            break
    n_rounds = 100000
    state = VirtualStakeState.build(Fraction(1, 2), {1: 2, 2: 1},
                                    {1: 300000, 2: 200000})
    w = selection_probabilities(state)
    freq = sampled_win_frequencies(state, n_rounds, seed=7)
    for pid in w:
        tol = 3 * math.sqrt(float(w[pid] * (1 - w[pid])) / n_rounds)
        if abs(float(freq[pid] - w[pid])) > tol:
            ok = False
    report(7, ok, "selection probabilities exactly invariant; sampled frequencies converge")


def floor_note(theta, instance):
    """Whether theta equals the value floor v(1), for a criterion's report line."""
    floor = token_value(1, instance.value_function)
    if theta is None:
        return f"no theta; the value floor v(1) = {floor}"
    relation = "equals" if theta == floor else "exceeds"
    return f"theta {theta} {relation} the value floor v(1) = {floor}"


def lookahead_theta(instance, policy):
    return threshold(run(instance, policy, behavior="lookahead", rounds=50)).theta


def recurring_minima_and_recovery(trace, theta):
    min_d = min(r.d for r in trace.records)
    min_rounds = [r.round for r in trace.records if r.d == min_d]
    ok = theta is not None and len(min_rounds) >= 100
    ok = ok and all(
        trace.records[rd].v >= theta for rd in min_rounds if rd < trace.rounds
    )
    return ok, (f"value minima recur ({len(min_rounds)}x) and the next round recovers "
                f"above theta; {floor_note(theta, trace.instance)}")


def test_criterion_08_recurring_minima_and_recovery(lookahead_trace_1000):
    theta = lookahead_theta(example_instance(), MuStar())
    report(8, *recurring_minima_and_recovery(lookahead_trace_1000, theta))


def test_criterion_09_good_recovery(lookahead_trace_1000):
    rep = monitor_properties(lookahead_trace_1000)
    report(9, rep.good_recovery,
           "the index never drops during a recovery segment over 1000 rounds")


def simulating_policy_keeps_value(instance, theta):
    trace = run(instance, MuEll(), behavior="myopic", rounds=1000)
    everyone = frozenset(instance.ids)
    ok = theta is not None
    ok = ok and all(r.v >= theta for r in trace.records)
    ok = ok and all(r.participants == everyone for r in trace.records)
    return ok, ("simulating policy holds value above theta with full participation; "
                f"{floor_note(theta, instance)}")


def test_criterion_10_simulating_policy_keeps_value():
    inst = example_instance()
    report(10, *simulating_policy_keeps_value(inst, lookahead_theta(inst, MuStar())))


# Criteria 08 and 10 again, on an instance whose theta exceeds v(1): on the
# example theta is 1 = v(1), the floor of every non-decreasing value, so
# "v >= theta" holds on any trace.  Chosen by one rule: the first of 300
# instances drawn with random.Random(3) (n = randint(3, 6), then n types and
# n stakes, each randint(1, 8), then one of MuStar(), MuStar(1/10), MuAll()
# and MuAlpha(3/8); 30 lookahead rounds, horizon cap 200) whose theta
# exceeds v(1).  Both criteria take theta under that draw's policy, MuAll(),
# where the example takes it under MuStar().
ABOVE_FLOOR_POLICY = MuAll()


@pytest.fixture(scope="module")
def above_floor():
    instance = conftest.make_instance([5, 5, 6, 1, 7, 6], [1, 7, 3, 1, 6, 8])
    return instance, lookahead_theta(instance, ABOVE_FLOOR_POLICY)


def test_the_above_floor_instance_has_theta_above_v1(above_floor):
    instance, theta = above_floor
    assert theta == 2 > token_value(1, instance.value_function)


@pytest.mark.xfail(
    strict=True,
    reason="the value minimum (d = 1) is reached once, in round 12, and the "
    "trajectory then holds d = 3, so minima do not recur 100 times",
)
def test_criterion_08_on_a_theta_above_the_floor(above_floor):
    instance, theta = above_floor
    trace = run(instance, ABOVE_FLOOR_POLICY, behavior="lookahead", rounds=1000)
    report(8, *recurring_minima_and_recovery(trace, theta))


def test_criterion_10_on_a_theta_above_the_floor(above_floor):
    report(10, *simulating_policy_keeps_value(*above_floor))


def test_criterion_11_sybil_condition_and_all_pay_contrast():
    players = [
        Player(id=1, type_=Fraction(3)),
        Player(id=2, type_=Fraction(5, 2)),
        Player(id=3, type_=Fraction(2)),
    ]
    instance = Instance.build(players, {1: 1, 2: 1, 3: 1}, budget=1,
                              tau_threshold=Fraction(1, 2),
                              value_function=IdentityValue())
    granularity, max_parts = Fraction(1, 4), 3
    profiles = [instance.stakes(), {1: Fraction(3), 2: Fraction(1), 3: Fraction(1)}]
    ok = sybil_proofness_condition(
        instance, MuEll(), granularity, max_parts, profiles=profiles
    ).satisfied
    for pid in instance.ids:
        gain, _ = max_sybil_gain(pid, instance.stakes(), instance, MuEll(),
                                 granularity, max_parts)
        ok = ok and gain <= 0
    allpay_gain, _ = max_sybil_gain(1, instance.stakes(), instance, MuAll(),
                                    granularity, max_parts)
    ok = ok and allpay_gain > 0
    report(11, ok, "small type gaps block splitting gains; equal shares invite them")


def test_criterion_12_interpolation_counterexample():
    prev_top = None
    ok = True
    for m in (10, 100, 1000):
        state = incumbent_gap_state(Fraction(1, 2), {1: 3, 2: 1}, m)
        shares = selection_probabilities(state)
        ok = ok and shares[1] < shares[2]
        if prev_top is not None:
            ok = ok and shares[1] < prev_top
        prev_top = shares[1]
    report(12, ok, "a large enough incumbent stake outgrows the best type under interpolation")


if __name__ == "__main__":
    import sys

    pytest.main([__file__, "-q", "-s"] + sys.argv[1:])
