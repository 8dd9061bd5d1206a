"""Transforms of a game that must leave its trajectory unchanged.

Three changes to a game describe the same game, so a run must follow the
same trajectory in the image, round for round:

* an order-preserving relabelling of ids, here i -> 3i + 1, which keeps
  every tie-break by id (a ``FixedWinner``'s winner is relabelled too);
* stakes, budget and types scaled by one c > 0, which leaves the tau index,
  the type order and ``MuAlpha``'s lottery as they were;
* the value function scaled by one a > 0, with the costs scaled by c * a,
  so every utility is the original one times c * a.

The image run has the relabelled participants and winner, the same d, v
times a, and the relabelled rewards and stakes times c; ``threshold`` gives
theta times a, and no theta where there was none.  A run that overruns the
horizon cap overruns in the image at the same round, naming the relabelled
player and the scaled profile.  Sampled runs see the same distributions, so
the same seed draws the same winner.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import (
    AffineValue,
    FixedWinner,
    IdentityValue,
    Instance,
    LookaheadHorizonError,
    MuAll,
    MuAlpha,
    MuEll,
    MuStar,
    Player,
    RoundRecord,
    Runner,
    TableValue,
    Trace,
    run,
    threshold,
)
from stakegame.equilibrium import DEFAULT_HORIZON_CAP

from test_golden_traces import GOLDEN

ROUNDS = 12
CAP = 200
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=8)


def relabel(pid):
    return 3 * pid + 1


@st.composite
def games(draw):
    """A game of 2-6 players with its policy, behaviour, mode and seed."""
    n = draw(st.integers(2, 6))
    players = [
        Player(
            id=pid,
            type_=Fraction(draw(st.integers(1, 8))),
            cost=draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(3, 4)])),
        )
        for pid in range(1, n + 1)
    ]
    stakes = {
        pid: Fraction(draw(st.integers(1, 8)), draw(st.sampled_from([1, 2])))
        for pid in range(1, n + 1)
    }
    kind = draw(st.sampled_from(["identity", "affine", "table"]))
    if kind == "identity":
        vf = IdentityValue()
    elif kind == "affine":
        vf = AffineValue(draw(UNIT) * 3, draw(UNIT))
    else:
        steps = draw(st.lists(st.sampled_from([0, 1, 3]), min_size=n, max_size=n))
        vf = TableValue.from_mapping({d: 1 + sum(steps[:d]) for d in range(1, n + 1)})
    instance = Instance.build(
        players,
        stakes,
        budget=draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3)])),
        tau_threshold=draw(
            st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20)
        ),
        value_function=vf,
    )
    policy = draw(
        st.one_of(
            st.builds(MuAlpha, UNIT),
            st.builds(MuStar, UNIT),
            st.just(MuAll()),
            st.just(MuEll()),
            st.builds(FixedWinner, st.integers(1, n)),
        )
    )
    mixes = isinstance(policy, MuAlpha) or (isinstance(policy, MuStar) and policy.epsilon > 0)
    mode = draw(st.sampled_from(["expected", "sampled"])) if mixes else "expected"
    behavior = draw(st.sampled_from(["myopic", "lookahead"]))
    return instance, policy, behavior, mode, draw(st.integers(0, 2**32))


def transformed(instance, policy, c, a):
    """The game relabelled by :func:`relabel`, scaled by c, with its value scaled by a."""
    players = [
        Player(id=relabel(p.id), type_=c * p.type_, cost=c * a * p.cost) for p in instance.players
    ]
    vf = instance.value_function
    if isinstance(vf, IdentityValue):
        vf = AffineValue(a, Fraction(0))
    elif isinstance(vf, AffineValue):
        vf = AffineValue(a * vf.slope, a * vf.intercept)
    else:
        vf = TableValue(tuple((d, a * v) for d, v in vf.values))
    image = Instance.build(
        players,
        {relabel(pid): c * s for pid, s in instance.initial_stakes},
        budget=c * instance.budget,
        tau_threshold=instance.tau_threshold,
        value_function=vf,
    )
    if isinstance(policy, FixedWinner):
        policy = FixedWinner(relabel(policy.winner))
    return image, policy


def image_record(record, c, a):
    """The record the transformed game must give for ``record``."""

    def pairs(items):
        return tuple((relabel(pid), c * x) for pid, x in items)

    return RoundRecord(
        round=record.round,
        stakes_before=pairs(record.stakes_before),
        participants=frozenset(map(relabel, record.participants)),
        d=record.d,
        v=a * record.v,
        winner=None if record.winner is None else relabel(record.winner),
        rewards=pairs(record.rewards),
        stakes_after=pairs(record.stakes_after),
    )


def play(instance, policy, behavior, mode, seed):
    """The trace of up to ``ROUNDS`` rounds, and the cap overrun that ended it early, if any."""
    records, overrun = [], None
    try:
        # MuEll's shadow plays its first round as the runner is built
        runner = Runner(instance, policy, behavior, mode, seed, CAP)
        for _ in range(ROUNDS):
            records.append(runner.step())
    except LookaheadHorizonError as exc:
        overrun = exc
    return Trace(instance, policy, records), overrun


@pytest.mark.reseed
@settings(max_examples=300, deadline=None)
@given(
    games(),
    st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(1, 3)]),
    st.sampled_from([Fraction(1), Fraction(2), Fraction(5, 3)]),
)
def test_a_relabelled_and_scaled_game_is_transformed_round_for_round(game, c, a):
    instance, policy, behavior, mode, seed = game
    trace, overrun = play(instance, policy, behavior, mode, seed)
    image, image_policy = transformed(instance, policy, c, a)
    image_trace, image_overrun = play(image, image_policy, behavior, mode, seed)

    assert image_trace.records == [image_record(rec, c, a) for rec in trace.records]
    if overrun is None:
        assert image_overrun is None
    else:
        assert image_overrun is not None
        assert image_overrun.player == relabel(overrun.player)
        assert image_overrun.cap == overrun.cap
        assert image_overrun.stakes == {relabel(pid): c * s for pid, s in overrun.stakes.items()}
    found, image_found = threshold(trace), threshold(image_trace)
    assert image_found.per_player == tuple(
        (relabel(pid), None if v is None else a * v) for pid, v in found.per_player
    )
    assert image_found.theta == (None if found.theta is None else a * found.theta)


# How each golden trace was played: behaviour, mode, seed, rounds and horizon
# cap.  Its instance and policy are read from the trace itself.
GOLDEN_RUNS = {
    "sampled_mu_alpha.csv": ("myopic", "sampled", 11, 80, DEFAULT_HORIZON_CAP),
    "sampled_mu_star_epsilon.csv": ("lookahead", "sampled", 5, 40, DEFAULT_HORIZON_CAP),
    "lookahead_n16.csv": ("lookahead", "expected", None, 16, DEFAULT_HORIZON_CAP),
    "mu_all.csv": ("myopic", "expected", None, 12, DEFAULT_HORIZON_CAP),
    "mu_alpha_expected.csv": ("myopic", "expected", None, 12, DEFAULT_HORIZON_CAP),
    "mu_all_lookahead.csv": ("lookahead", "expected", None, 12, DEFAULT_HORIZON_CAP),
    "mu_alpha_lookahead.csv": ("lookahead", "expected", None, 12, DEFAULT_HORIZON_CAP),
    "lookahead_table_value.csv": ("lookahead", "expected", None, 30, DEFAULT_HORIZON_CAP),
    "sampled_mu_alpha_lookahead.csv": ("lookahead", "sampled", 7, 40, DEFAULT_HORIZON_CAP),
}


@cache
def golden_trace(filename):
    return GOLDEN[filename]()


@pytest.mark.parametrize(
    "c, a",
    [(Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(1)), (Fraction(1), Fraction(5, 3))],
    ids=["relabelled", "stakes_scaled", "value_scaled"],
)
@pytest.mark.parametrize("filename", sorted(GOLDEN))
def test_each_golden_trace_is_transformed_round_for_round(filename, c, a):
    """Each golden played relabelled, with stakes scaled by c, or with its value scaled by a."""
    trace = golden_trace(filename)
    behavior, mode, seed, rounds, cap = GOLDEN_RUNS[filename]
    image, image_policy = transformed(trace.instance, trace.policy, c, a)
    image_trace = run(
        image, image_policy, behavior, rounds=rounds, mode=mode, seed=seed, horizon_cap=cap
    )

    assert image_trace.records == [image_record(rec, c, a) for rec in trace.records]
    found, image_found = threshold(trace), threshold(image_trace)
    assert image_found.per_player == tuple(
        (relabel(pid), None if v is None else a * v) for pid, v in found.per_player
    )
