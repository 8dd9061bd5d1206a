from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import (
    AxiomReport,
    IdentityValue,
    check_alignment,
    check_decentralization_axioms,
    max_attainable_index,
    scalar,
    tau_decentralization_index,
    tau_index_measure,
    token_value,
)

from conftest import make_instance


class TestTauIndex:
    def test_singleton(self):
        assert tau_decentralization_index([Fraction(5)], Fraction(1, 2)) == 1

    def test_equal_stakes_nakamoto(self):
        # with equal stakes the index is the smallest majority
        assert tau_decentralization_index([1, 1, 1], "1/2") == 2
        assert tau_decentralization_index([1, 1, 1, 1], "1/2") == 3

    def test_dominant_stake(self):
        assert tau_decentralization_index([4, 2, 1], "1/2") == 1

    def test_strictness_at_threshold(self):
        # exactly half is not strictly more than half
        assert tau_decentralization_index([2, 1, 1], "1/2") == 2

    def test_scale_invariance(self):
        a = tau_decentralization_index([3, 2, 1], "1/2")
        b = tau_decentralization_index(["3/7", "2/7", "1/7"], "1/2")
        assert a == b

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            tau_decentralization_index([1, 1], 1)
        with pytest.raises(ValueError):
            tau_decentralization_index([1, 1], 0)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            tau_decentralization_index([0, 0], "1/2")

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            tau_decentralization_index([1, -1], "1/2")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            tau_decentralization_index([], "1/2")

    @given(
        stakes=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6),
        tau_num=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariant_and_bounded(self, stakes, tau_num):
        if sum(stakes) == 0:
            return
        tau = Fraction(tau_num, 6)
        d = tau_decentralization_index(stakes, tau)
        assert 1 <= d <= len(stakes)
        assert d == tau_decentralization_index(list(reversed(stakes)), tau)


def reference_tau_index(stakes, tau):
    """The index on Fraction arithmetic: an independent reference."""
    tau = scalar(tau)
    if not 0 < tau < 1:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    values = sorted(
        (s if isinstance(s, Fraction) else scalar(s) for s in stakes), reverse=True
    )
    if not values:
        raise ValueError("empty stake multiset")
    if any(s < 0 for s in values):
        raise ValueError("negative stake")
    total = sum(values)
    if total == 0:
        raise ValueError("all stakes are zero; fraction of total is undefined")
    threshold = tau * total
    running = Fraction(0)
    for k, s in enumerate(values, start=1):
        running += s
        if running > threshold:
            return k
    raise AssertionError("unreachable: full sum exceeds any tau < 1 fraction")


def outcome(index, stakes, tau):
    """The index, or the type and message of the exception it raises."""
    try:
        return index(stakes, tau)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# ints, Fractions over assorted denominators and numeric strings, zeros included
fractions = st.builds(
    Fraction, st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=12)
)
mixed_stakes = st.one_of(
    st.integers(min_value=0, max_value=20),
    fractions,
    fractions.map(str),
    st.sampled_from(["0", "0.25", "1.5", "3/4"]),
)
open_unit = st.integers(min_value=2, max_value=24).flatmap(
    lambda q: st.integers(min_value=1, max_value=q - 1).map(lambda p: Fraction(p, q))
)


class TestTauIndexMatchesReference:
    @given(stakes=st.lists(mixed_stakes, min_size=1, max_size=8), tau=open_unit)
    @settings(max_examples=300, deadline=None)
    def test_integer_index_equals_the_fraction_reference(self, stakes, tau):
        expected = outcome(reference_tau_index, stakes, tau)
        assert outcome(tau_decentralization_index, stakes, tau) == expected

    @pytest.mark.parametrize(
        "stakes, tau",
        [
            ([], "1/2"),
            ([1, -1], "1/2"),
            ([Fraction(1, 3), "-1/2"], "1/3"),
            ([0, 0, Fraction(0)], "1/2"),
            ([1, 1], 0),
            ([1, 1], 1),
            ([1, 1], "3/2"),
            ([1, True], "1/2"),
            ([1, 1], True),
        ],
        ids=[
            "empty", "negative", "negative string", "all zero", "tau zero", "tau one",
            "tau above one", "bool stake", "bool tau",
        ],
    )
    def test_errors_match_the_reference(self, stakes, tau):
        expected = outcome(reference_tau_index, stakes, tau)
        assert isinstance(expected, tuple)
        assert outcome(tau_decentralization_index, stakes, tau) == expected


class TestMaxAttainable:
    def test_equal_stakes_attain_it(self):
        for n in range(1, 8):
            d = tau_decentralization_index([1] * n, "1/2")
            assert d == max_attainable_index(n, "1/2")

    def test_cap_at_n(self):
        assert max_attainable_index(1, "2/3") == 1
        assert max_attainable_index(2, "2/3") == 2

    def test_no_players_raises(self):
        with pytest.raises(ValueError, match="^need at least one player$"):
            max_attainable_index(0, "1/2")


def test_token_value_needs_a_level_of_at_least_one():
    assert token_value(1, IdentityValue()) == 1
    with pytest.raises(ValueError, match="^decentralization level must be >= 1, got 0$"):
        token_value(0, IdentityValue())


class TestAxioms:
    def test_tau_index_satisfies_axioms(self):
        report = check_decentralization_axioms(tau_index_measure("1/2"), 4, [1, 2, 3, 4])
        assert report.ok
        assert report.checked > 0

    def test_violating_measure_is_reported(self):
        # singletons score above every larger multiset, so they miss the minimum
        def inverted(stakes):
            return 2 if len(stakes) == 1 else 1

        report = check_decentralization_axioms(inverted, 3, [1, 2])
        assert not report.ok
        assert report.singleton_violations

    def test_violations_render_multisets_as_rationals(self):
        # a stake of 1 anywhere keeps the measure at 1; without one it reads 2
        report = check_decentralization_axioms(
            lambda ms: 1 if min(ms) == 1 else 2, 3, [1, 2, 3]
        )
        assert report.singleton_violations == [
            "singleton (2) has value 2 > enumeration minimum 1",
            "singleton (3) has value 2 > enumeration minimum 1",
        ]
        assert report.removal_violations == [
            f"d({ms}) = 1 >= d(minus max) = 1 but d(minus 1) = 2"
            for ms in ("1, 2", "1, 3", "1, 2, 2", "1, 2, 3", "1, 3, 3")
        ]

    def test_n_max_guard(self):
        with pytest.raises(ValueError):
            check_decentralization_axioms(tau_index_measure("1/2"), 1, [1])

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="^empty stake grid$"):
            check_decentralization_axioms(tau_index_measure("1/2"), 3, [])

    def test_grid_with_nothing_to_evaluate(self):
        # every multiset of an all-zero grid is undefined for the tau-index
        report = check_decentralization_axioms(tau_index_measure("1/2"), 3, [0])
        assert report.ok
        assert report.checked == 0


def reference_axioms(measure, n_max, stake_grid):
    """The axiom checker that calls the measure at every lookup: a reference."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    grid = sorted({scalar(s) for s in stake_grid})
    if not grid:
        raise ValueError("empty stake grid")
    report = AxiomReport()

    def evaluate(multiset):
        try:
            return measure(multiset)
        except ValueError:
            return None  # e.g. all-zero submultisets; nothing to check

    all_values = []
    singleton_values = []
    for size in range(1, n_max + 1):
        for multiset in combinations_with_replacement(grid, size):
            d = evaluate(multiset)
            if d is None:
                continue
            report.checked += 1
            all_values.append((multiset, d))
            if size == 1:
                singleton_values.append((multiset, d))
                continue
            top = multiset[-1]  # combinations are sorted ascending
            without_top = evaluate(multiset[:-1])
            if without_top is None or d < without_top:
                continue
            for idx in range(size - 1):
                if multiset[idx] == top:
                    continue
                reduced = multiset[:idx] + multiset[idx + 1 :]
                d_reduced = evaluate(reduced)
                if d_reduced is not None and d < d_reduced:
                    report.removal_violations.append(
                        f"d({', '.join(map(str, multiset))}) = {d} "
                        f">= d(minus max) = {without_top} "
                        f"but d(minus {multiset[idx]}) = {d_reduced}"
                    )
    # default: no multiset could be evaluated (e.g. an all-zero grid)
    minimum = min((d for _, d in all_values), default=None)
    for multiset, d in singleton_values:
        if d > minimum:
            report.singleton_violations.append(
                f"singleton ({multiset[0]}) has value {d} > enumeration minimum {minimum}"
            )
    return report


def integer_total_index(stakes):
    """The Nakamoto index, undefined wherever the stakes sum to a non-integer."""
    if sum(stakes).denominator != 1:
        raise ValueError("total is not an integer")
    return tau_decentralization_index(stakes, "1/2")


axiom_measures = st.one_of(
    open_unit.map(tau_index_measure),
    st.just(lambda ms: 2 if len(ms) == 1 else 1),  # singletons miss the minimum
    st.just(lambda ms: 1 if min(ms) == 1 else 2),  # removing a 1 raises it
    st.just(integer_total_index),
)


class TestAxiomTable:
    @given(
        measure=axiom_measures,
        grid=st.lists(
            st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)]),
            min_size=1, max_size=4,
        ).map(lambda rest: [0, *rest]),
        n_max=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_table_matches_the_reference(self, measure, grid, n_max):
        got = check_decentralization_axioms(measure, n_max, grid)
        expected = reference_axioms(measure, n_max, grid)
        assert got.checked == expected.checked
        assert got.singleton_violations == expected.singleton_violations
        assert got.removal_violations == expected.removal_violations

    def test_the_measure_is_called_once_per_multiset_in_order(self):
        grid = [Fraction(0), Fraction(1), Fraction(2)]
        calls = []

        def counting(ms):
            calls.append(ms)
            return tau_decentralization_index(ms, "1/2")

        report = check_decentralization_axioms(counting, 4, [2, 0, 1, 1])
        assert calls == [
            ms for size in range(1, 5) for ms in combinations_with_replacement(grid, size)
        ]
        # 34 multisets, of which the four all-zero ones are undefined
        assert (len(calls), report.checked) == (34, 30)


class TestAlignment:
    def test_example_boundary(self, three_player_instance):
        # unit stakes sit exactly on the v(1)/v(2) boundary
        report = check_alignment(three_player_instance, 1)
        assert report.aligned
        assert len(report.boundary) == 1
        v1, v2, needed = report.boundary[0]
        assert (v1, v2, needed) == (Fraction(1), Fraction(2), Fraction(1))

    def test_larger_stakes_clear_the_bound(self, three_player_instance):
        report = check_alignment(three_player_instance, 2)
        assert report.aligned
        assert not report.boundary

    def test_violation_detected(self):
        inst = make_instance([3, 2, 1], [1, 1, 1], budget=10)
        report = check_alignment(inst, 1)
        assert not report.aligned

    def test_unattainable_levels_ignored(self):
        # three players at tau = 1/2 can never reach index 3, so only the
        # pair v(1) < v(2) is compared
        inst = make_instance([3, 2, 1], [1, 1, 1])
        report = check_alignment(inst, 1)
        assert report.pairs_checked == 1

    def test_bound_must_be_positive(self, three_player_instance):
        with pytest.raises(ValueError):
            check_alignment(three_player_instance, 0)
