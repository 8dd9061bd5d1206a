from fractions import Fraction

import pytest

from stakegame import (
    AffineValue,
    IdentityValue,
    Instance,
    Player,
    TableValue,
    rank,
    scalar,
    validate_instance,
)
from stakegame.core import scaled_profile
from stakegame.equilibrium import RankedProfile

from conftest import make_instance


class TestScalar:
    def test_int(self):
        assert scalar(3) == Fraction(3)

    def test_rational_string(self):
        assert scalar("3/2") == Fraction(3, 2)

    def test_decimal_string_is_exact(self):
        assert scalar("0.25") == Fraction(1, 4)
        assert scalar("0.1") == Fraction(1, 10)

    def test_float_converts_to_binary_value(self):
        assert scalar(0.25) == Fraction(1, 4)
        # 0.1 is not representable; the float's exact value is kept
        assert scalar(0.1) != Fraction(1, 10)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            scalar(True)

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            scalar([1])


class TestRank:
    def test_descending_stake(self):
        assert rank({1: Fraction(1), 2: Fraction(5), 3: Fraction(3)}) == (2, 3, 1)

    def test_ties_by_id(self):
        assert rank({3: Fraction(2), 1: Fraction(2), 2: Fraction(2)}) == (1, 2, 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rank({})

    def test_suffix_set(self):
        profile = RankedProfile(
            scaled_profile({1: 1, 2: 5, 3: 3}), make_instance([1, 1, 1], [1, 5, 3])
        )
        assert profile.ranking == (2, 3, 1)
        assert profile.suffix(1) == frozenset({1, 2, 3})
        assert profile.suffix(3) == frozenset({1})
        assert profile.suffix(4) == frozenset()


class TestValueFunctions:
    def test_identity(self):
        assert IdentityValue()(3) == Fraction(3)

    def test_affine(self):
        vf = AffineValue(slope=Fraction(2), intercept=Fraction(1))
        assert vf(2) == Fraction(5)

    def test_table(self):
        vf = TableValue.from_mapping({1: "1", 2: "3/2", 3: 2})
        assert vf(2) == Fraction(3, 2)
        with pytest.raises(ValueError):
            vf(4)


class TestValidation:
    def test_valid_instance(self, three_player_instance):
        report = validate_instance(three_player_instance)
        assert report.ok
        # stake 1 only weakly meets the value/budget alignment bound
        assert any("weak" in w for w in report.warnings)

    def test_aligned_instance_no_warnings(self):
        inst = make_instance([3, 2, 1], [4, 4, 4])
        report = validate_instance(inst)
        assert report.ok
        assert report.warnings == []

    def test_type_below_one(self):
        inst = make_instance([3, 2, "1/2"], [1, 1, 1])
        report = validate_instance(inst)
        assert not report.ok
        assert any("type" in e for e in report.errors)

    def test_no_players(self):
        inst = Instance.build([], {}, 1, Fraction(1, 2), IdentityValue())
        report = validate_instance(inst)
        assert report.errors == ["instance has no players"]

    def test_negative_cost(self):
        inst = make_instance([2, 1], [1, 1], costs=[-1, 0])
        assert validate_instance(inst).errors == ["player 1: negative cost -1"]

    def test_nonpositive_stake(self):
        inst = make_instance([2, 1], [1, 0])
        assert not validate_instance(inst).ok

    def test_bad_tau(self):
        inst = make_instance([2, 1], [1, 1], tau=Fraction(3, 2))
        assert not validate_instance(inst).ok

    def test_table_must_cover_all_levels(self):
        vf = TableValue.from_mapping({1: 1, 2: 2})
        inst = make_instance([3, 2, 1], [1, 1, 1], vf=vf)
        report = validate_instance(inst)
        assert any("misses" in e for e in report.errors)

    def test_decreasing_table_rejected(self):
        vf = TableValue.from_mapping({1: 2, 2: 1, 3: 3})
        inst = make_instance([3, 2, 1], [1, 1, 1], vf=vf)
        assert any("non-decreasing" in e for e in validate_instance(inst).errors)

    @pytest.mark.parametrize("vf, errors", [
        (IdentityValue(), []),
        (AffineValue(Fraction(1, 2), Fraction(1)), []),
        (AffineValue(Fraction(-1), Fraction(5)),
         ["value function is not non-decreasing over levels 1..3"]),
        (AffineValue(Fraction(1), Fraction(-5)), ["value function is negative at level 1"]),
        (AffineValue(Fraction(-1), Fraction(0)),
         ["value function is not non-decreasing over levels 1..3",
          "value function is negative at level 3"]),
        (TableValue.from_mapping({1: 1, 2: 2, 3: 3}), []),
        (TableValue.from_mapping({1: 2, 2: 1, 3: 3}),
         ["value function is not non-decreasing over levels 1..3"]),
        (TableValue.from_mapping({1: 1, 3: 3}), ["value table misses decentralization level 2"]),
        (TableValue.from_mapping({1: -3, 2: -2, 3: -1}),
         ["value function is negative at level 1"]),
        # only levels 1..n are read: a drop at level 4 of three players passes
        (TableValue.from_mapping({1: 1, 2: 2, 3: 3, 4: 0}), []),
    ], ids=["identity", "affine", "affine decreasing", "affine negative",
            "affine decreasing and negative", "table", "table decreasing", "table gap",
            "table negative", "table decreasing past n"])
    def test_value_function_rule(self, vf, errors):
        inst = make_instance([3, 2, 1], [1, 1, 1], vf=vf)
        assert validate_instance(inst).errors == errors

    def test_one_level_is_never_out_of_order(self):
        # one player reaches level 1 only, so a negative slope is no error
        inst = make_instance([1], [1], vf=AffineValue(Fraction(-1), Fraction(5)))
        assert validate_instance(inst).errors == []

    def test_duplicate_ids(self):
        # a repeated id used to build, and a run went on with its first entry's type
        players = (Player(id=1, type_=Fraction(2)), Player(id=1, type_=Fraction(1)))
        stakes = ((1, Fraction(1)),)
        with pytest.raises(ValueError, match="^player ids are not unique$"):
            Instance(players, stakes, Fraction(1), Fraction(1, 2), IdentityValue())
        with pytest.raises(ValueError, match="^player ids are not unique$"):
            Instance.build(players, {1: 1}, 1, Fraction(1, 2), IdentityValue())

    stakes_off_the_players = pytest.mark.parametrize("stakes, problem", [
        # validation used to pass it, and a run ended in a bare KeyError: 9
        ({1: 1, 2: 1, 9: 5}, "names unknown players [9]"),
        ({1: 1}, "has no stake for players [2]"),
    ], ids=["unknown", "missing"])

    @stakes_off_the_players
    def test_build_rejects_stakes_off_the_players(self, stakes, problem):
        players = [Player(id=1, type_=Fraction(2)), Player(id=2, type_=Fraction(1))]
        with pytest.raises(ValueError) as exc:
            Instance.build(players, stakes, 1, Fraction(1, 2), IdentityValue())
        assert str(exc.value) == f"initial stake profile {problem}"

    @stakes_off_the_players
    def test_validation_rejects_stakes_off_the_players(self, stakes, problem):
        # the constructor, unlike Instance.build, takes any stakes
        players = (Player(id=1, type_=Fraction(2)), Player(id=2, type_=Fraction(1)))
        stakes = tuple((pid, Fraction(s)) for pid, s in stakes.items())
        inst = Instance(players, stakes, Fraction(1), Fraction(1, 2), IdentityValue())
        assert validate_instance(inst).errors == [f"initial stake profile {problem}"]


def test_instance_accessors(three_player_instance):
    inst = three_player_instance
    assert inst.n == 3
    assert inst.ids == (1, 2, 3)
    assert inst.player(2).type_ == Fraction(2)
    assert inst.types() == {1: Fraction(3), 2: Fraction(2), 3: Fraction(1)}
    with pytest.raises(KeyError):
        inst.player(9)


class CountingValue:
    """A value function that records each level it is called at."""

    def __init__(self, vf):
        self.vf, self.calls = vf, []

    def __call__(self, d):
        self.calls.append(d)
        return self.vf(d)


# Pairwise coprime denominators: each new level grows the table's scale.
COPRIME = TableValue.from_mapping({1: 1, 2: Fraction(5, 2), 3: Fraction(11, 3), 4: Fraction(29, 5)})


class TestTokenValues:
    """``Instance.token_values``: the values of levels as ints over one scale, from one table."""

    def test_levels_out_of_order_and_repeated(self):
        vf = CountingValue(COPRIME)
        inst = make_instance([1] * 4, [1] * 4, vf=vf)
        levels = [3, 1, 3, 2, 1]
        ints, scale = inst.token_values(levels)
        assert [Fraction(x, scale) for x in ints] == [COPRIME(d) for d in levels]
        # every level up to the highest asked for, lowest first, once each
        assert vf.calls == [1, 2, 3]
        assert inst._values == [6, 6, 15, 22]
        assert inst.token_values([2, 2, 1]) == ([15, 15, 6], 6)
        assert vf.calls == [1, 2, 3]
        # a higher level evaluates only what is missing, and its denominator
        # rescales every entry
        assert inst.token_values([4, 1, 4]) == ([174, 30, 174], 30)
        assert vf.calls == [1, 2, 3, 4]
        assert inst._values == [30, 30, 75, 110, 174]

    def test_a_value_function_that_raises_leaves_the_table_as_it_was(self):
        missing = r"^value table has no entry for decentralization 3$"
        inst = make_instance([1] * 4, [1] * 4, vf=TableValue.from_mapping({1: 1, 2: "5/2", 4: 4}))
        assert inst.token_values([2]) == ([5], 2)
        table = inst._values
        for levels in ([3], [1, 4, 2], [4, 3]):
            with pytest.raises(ValueError, match=missing):
                inst.token_values(levels)
            # the list and its scale, as the last fill left them
            assert inst._values is table and table == [2, 2, 5]
        # from an empty table, the levels below the missing one are filled
        fresh = make_instance([1] * 4, [1] * 4, vf=CountingValue(inst.value_function))
        with pytest.raises(ValueError, match=missing):
            fresh.token_values([4, 1])
        assert fresh._values == [2, 2, 5]
        assert fresh.token_values([1, 2]) == ([2, 5], 2)
        assert fresh.value_function.calls == [1, 2, 3]

    def test_a_denominator_that_divides_the_scale_keeps_it(self):
        vf = TableValue.from_mapping({1: Fraction(1, 6), 2: Fraction(1, 2), 3: Fraction(2, 3)})
        inst = make_instance([1] * 3, [1] * 3, vf=vf)
        assert inst.token_values([1]) == ([1], 6)
        table = inst._values
        assert inst.token_values([3, 2]) == ([4, 3], 6)
        assert inst._values is table and table == [6, 1, 3, 4]
