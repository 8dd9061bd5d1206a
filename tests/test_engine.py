import csv
from fractions import Fraction

import pytest

from stakegame import (
    FixedWinner,
    MuAlpha,
    MuEll,
    MuStar,
    Runner,
    monitor_properties,
    run,
    trace_rows,
    write_trace,
)

from conftest import make_instance


class TestRunner:
    def test_missing_round_count(self, three_player_instance):
        with pytest.raises(TypeError):
            run(three_player_instance, MuStar())

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

    def test_mu_ell_skipped_winner_pays_nothing(self):
        # the simulating policy's designated winner may be sitting out; the
        # round's budget then stays unallocated
        inst = make_instance([3, 2, 1], [9, 1, 1])
        trace = run(inst, MuEll(), rounds=1)
        rec = trace.records[0]
        if rec.winner not in rec.participants:
            assert all(v == 0 for _, v in rec.rewards)

    @pytest.mark.parametrize("mode", ["expected", "sampled"])
    def test_absent_fixed_winner_is_recorded_and_pays_nobody(self, mode):
        # player 1's stake dominates, so the designated winner sits out
        inst = make_instance([3, 5, 3], [8, 1, 1])
        rec = Runner(inst, FixedWinner(1), mode=mode, seed=0).step()
        assert rec.participants == frozenset({2, 3})
        assert rec.winner == 1
        assert all(v == 0 for _, v in rec.rewards)
        assert dict(rec.stakes_after) == inst.stakes()


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

    def test_budget_conservation_checked(self, three_player_instance):
        trace = run(three_player_instance, MuStar(), rounds=3)
        trace.records[1] = trace.records[1].__class__(
            **{**trace.records[1].__dict__, "rewards": ((1, Fraction(1, 3)), (2, Fraction(0)), (3, Fraction(0)))}
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
