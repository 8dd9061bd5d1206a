import csv
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import (
    FixedWinner,
    Instance,
    LookaheadHorizonError,
    MuAll,
    MuAlpha,
    MuEll,
    MuStar,
    Runner,
    monitor_properties,
    run,
    tau_decentralization_index,
    trace_rows,
    write_trace,
)

from conftest import make_instance
from test_kernel import COSTS, STAGE_POLICIES, TYPES, instances
from test_transforms import GOLDEN_RUNS, golden_trace


class TestRunner:
    def test_missing_round_count(self, three_player_instance):
        with pytest.raises(TypeError):
            run(three_player_instance, MuStar())

    def test_negative_round_count(self, three_player_instance):
        with pytest.raises(ValueError, match="^rounds must be at least 0, got -1$"):
            run(three_player_instance, MuStar(), rounds=-1)
        runner = Runner(three_player_instance, MuStar())
        with pytest.raises(ValueError, match="^rounds must be at least 0, got -1$"):
            runner.run(-1)
        assert runner.run(0).rounds == 0

    def test_final_stakes_before_any_round(self, three_player_instance):
        inst = three_player_instance
        trace = Runner(inst, MuStar()).trace
        assert trace.rounds == 0
        assert trace.final_stakes() == inst.stakes()

    def test_step_by_step_matches_run(self, three_player_instance):
        inst = three_player_instance
        runner = Runner(inst, MuStar())
        records = [runner.step() for _ in range(5)]
        trace = run(inst, MuStar(), rounds=5)
        assert records == trace.records

    def test_expected_mode_is_deterministic(self, three_player_instance):
        a = run(three_player_instance, MuStar(), rounds=8)
        b = run(three_player_instance, MuStar(), rounds=8)
        assert a.records == b.records

    def test_sampled_requires_seed(self, three_player_instance):
        with pytest.raises(ValueError):
            Runner(three_player_instance, MuStar(), mode="sampled")

    def test_sampled_reproducible(self):
        inst = make_instance([2, 1], [3, 3])
        a = run(inst, MuAlpha(alpha=Fraction(1, 2)), rounds=20, mode="sampled", seed=5)
        b = run(inst, MuAlpha(alpha=Fraction(1, 2)), rounds=20, mode="sampled", seed=5)
        assert a.records == b.records

    def test_sampled_point_mass_consumes_no_randomness(self, three_player_instance):
        # mu_star is deterministic, so any seed yields the same trace
        a = run(three_player_instance, MuStar(), rounds=5, mode="sampled", seed=1)
        b = run(three_player_instance, MuStar(), rounds=5, mode="sampled", seed=2)
        assert a.records == b.records

    def test_expected_mode_mixed_policy_grows_fractionally(self):
        inst = make_instance([2, 1], [1, 1])
        trace = run(inst, MuAlpha(alpha=Fraction(1, 2)), rounds=1)
        assert trace.final_stakes() == {1: Fraction(8, 5), 2: Fraction(7, 5)}
        assert trace.records[0].winner is None

    def test_rejects_unknown_args(self, three_player_instance):
        with pytest.raises(ValueError):
            Runner(three_player_instance, MuStar(), behavior="psychic")
        with pytest.raises(ValueError):
            Runner(three_player_instance, MuStar(), mode="guess")

    @pytest.mark.parametrize("behavior", ["myopic", "lookahead"])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_a_horizon_cap_below_one(self, three_player_instance, behavior, cap):
        # lookahead used to fail at the first step, and myopic play never
        with pytest.raises(ValueError, match="^horizon cap must be at least 1$"):
            Runner(three_player_instance, MuStar(), behavior=behavior, horizon_cap=cap)

    def test_mu_ell_skipped_winner_pays_nothing(self):
        # the simulating policy's designated winner may be sitting out; the
        # round's budget then stays unallocated
        inst = make_instance([3, 2, 1], [9, 1, 1])
        trace = run(inst, MuEll(), rounds=1)
        rec = trace.records[0]
        assert rec.winner not in rec.participants
        assert rec.rewards == ()

    @pytest.mark.parametrize("mode", ["expected", "sampled"])
    def test_absent_fixed_winner_is_recorded_and_pays_nobody(self, mode):
        # player 1's stake dominates, so the designated winner sits out
        inst = make_instance([3, 5, 3], [8, 1, 1])
        rec = Runner(inst, FixedWinner(1), mode=mode, seed=0).step()
        assert rec.participants == frozenset({2, 3})
        assert rec.winner == 1
        assert rec.rewards == ()
        assert dict(rec.stakes_after) == inst.stakes()

    def test_mu_all_pays_equal_shares_in_sampled_mode(self, three_player_instance):
        # the top type is MuAll's point-mass winner, so nothing is drawn
        rec = Runner(three_player_instance, MuAll(), mode="sampled", seed=0).step()
        assert rec.winner == 1
        assert rec.rewards == tuple((pid, Fraction(1, 3)) for pid in (1, 2, 3))

    def test_records_store_only_what_was_paid(self, three_player_instance):
        inst = three_player_instance
        records = run(inst, MuStar(), rounds=2).records
        for rec in records:
            assert rec.rewards == ((rec.winner, inst.budget),)
        # player 2 goes unpaid in both rounds: one pair object serves throughout
        assert records[0].stakes_before[1] is records[0].stakes_after[1]
        assert records[0].stakes_after[1] is records[1].stakes_after[1]
        # the designated winner sits out: nothing paid, the stakes carry over
        absent = Runner(make_instance([3, 5, 3], [8, 1, 1]), FixedWinner(1)).step()
        assert absent.rewards == ()
        assert absent.stakes_after is absent.stakes_before


@pytest.mark.reseed
@settings(max_examples=100, deadline=None)
@given(
    instances(max_n=6, costs=COSTS, types=TYPES.filter(lambda t: t >= 1)),
    st.one_of(STAGE_POLICIES, st.just(MuEll())),
    st.sampled_from(["myopic", "lookahead"]),
    st.sampled_from(["expected", "sampled"]),
    st.integers(1, 8),
    st.integers(0, 2**32),
)
def test_each_record_pays_its_rewards_by_fraction_addition(
    inst, policy, behavior, mode, rounds, seed
):
    """A record's ``stakes_after`` is its ``stakes_before`` plus its ``rewards``, pair by pair.

    The runner advances its stakes on integers; each paid pair must still be
    the ``Fraction`` sum, and each unpaid pair the very object it was before
    the round.  A run stops at the first round whose plan, or whose
    ``MuEll`` shadow's, overruns the horizon cap.
    """
    try:
        runner = Runner(inst, policy, behavior, mode, seed)
    except LookaheadHorizonError:
        return  # MuEll's shadow overran the cap before round 1
    for _ in range(rounds):
        try:
            runner.step()
        except LookaheadHorizonError:
            break
    for record in runner.trace.records:
        paid = dict(record.rewards)
        assert len(record.stakes_after) == len(record.stakes_before)
        for pair, pair_after in zip(record.stakes_before, record.stakes_after):
            pid, stake = pair
            if pid in paid:
                assert pair_after == (pid, stake + paid[pid])
            else:
                assert pair_after is pair


# The expected-mode goldens; none plays MuEll, whose shadow a fresh runner
# would restart from its own initial stakes.
CARRIED_GOLDENS = [
    "lookahead_n16.csv", "lookahead_table_value.csv", "mu_all.csv", "mu_all_lookahead.csv",
    "mu_alpha_expected.csv", "mu_alpha_lookahead.csv",
]


@pytest.mark.parametrize("filename", CARRIED_GOLDENS)
def test_a_runner_started_from_a_recorded_round_plays_the_next_one(filename):
    """The runner's integer stakes are a cache of the trace, not a second source of truth.

    After each round k but the last, a fresh runner on the same game,
    started from round k's ``stakes_after`` (with a token-value table of
    its own), steps to round k + 1's record in every field but the round
    number.
    """
    trace = golden_trace(filename)
    behavior, mode, _, _, cap = GOLDEN_RUNS[filename]
    inst = trace.instance
    for record, following in zip(trace.records, trace.records[1:]):
        start = Instance.build(
            inst.players, dict(record.stakes_after), inst.budget, inst.tau_threshold,
            inst.value_function,
        )
        got = Runner(start, trace.policy, behavior, mode, horizon_cap=cap).step()
        assert got == dataclasses.replace(following, round=1)


class TestMonitors:
    def test_clean_run(self, three_player_instance):
        trace = run(three_player_instance, MuStar(), rounds=10)
        report = monitor_properties(trace)
        assert report.ok
        assert report.rounds_checked == 10

    def test_exclusion_segments_detected(self, three_player_instance):
        trace = run(three_player_instance, MuStar(), behavior="lookahead", rounds=10)
        report = monitor_properties(trace)
        # rounds 3, 5, 7, 9 each exclude at least one prior participant
        assert report.exclusion_rounds == 4
        assert report.good_recovery

    def test_a_flat_index_through_an_exclusion_round_is_clean(self):
        # round 2 excludes players 2 and 3, and the full index stays at 1:
        # only a drop is a violation
        inst = make_instance([8, 5, 6], [1, 3, 7])
        trace = run(inst, MuStar(), behavior="lookahead", rounds=2)
        rec = trace.records[1]
        assert rec.participants == frozenset({1})
        for stakes in (rec.stakes_before, rec.stakes_after):
            assert tau_decentralization_index([s for _, s in stakes], inst.tau_threshold) == 1
        report = monitor_properties(trace)
        assert report.exclusion_rounds == 1
        assert report.recovery_violations == []
        assert report.good_recovery and report.ok

    def test_index_drop_during_exclusion_is_a_recovery_violation(self, three_player_instance):
        trace = run(three_player_instance, MuStar(), behavior="lookahead", rounds=4)
        # round 3 excludes player 1; make the full-profile index fall 2 -> 1
        trace.records[2] = dataclasses.replace(
            trace.records[2],
            stakes_before=((1, Fraction(1)), (2, Fraction(1)), (3, Fraction(1))),
            stakes_after=((1, Fraction(3)), (2, Fraction(1)), (3, Fraction(1))),
        )
        report = monitor_properties(trace)
        assert report.recovery_violations == [(3, 2, 1)]
        assert not report.good_recovery and not report.ok

    def test_budget_conservation_checked(self, three_player_instance):
        trace = run(three_player_instance, MuStar(), rounds=3)
        trace.records[1] = dataclasses.replace(
            trace.records[1], rewards=((1, Fraction(1, 3)), (2, Fraction(0)), (3, Fraction(0)))
        )
        report = monitor_properties(trace)
        assert report.conservation_violations == [2]


class TestExport:
    def test_header_and_rationals(self, three_player_instance, tmp_path):
        trace = run(three_player_instance, MuStar(), rounds=3)
        path = tmp_path / "trace.csv"
        write_trace(trace, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["round", "stake_1", "stake_2", "stake_3", "participants"]
        assert rows == trace_rows(trace)

    def test_values_round_trip_exactly(self, tmp_path):
        inst = make_instance([2, 1], [1, 1])
        trace = run(inst, MuAlpha(alpha=Fraction(1, 2)), rounds=3)
        path = tmp_path / "trace.csv"
        write_trace(trace, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        stake_col = header.index("stake_1")
        parsed = Fraction(rows[-1][stake_col])
        assert parsed == dict(trace.records[-1].stakes_before)[1]
