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
        profile = RankedProfile({1: 1, 2: 5, 3: 3}, make_instance([1, 1, 1], [1, 5, 3]))
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

    def test_duplicate_ids(self):
        players = (Player(id=1, type_=Fraction(2)), Player(id=1, type_=Fraction(1)))
        inst = Instance.build(players, {1: 1}, 1, Fraction(1, 2), IdentityValue())
        assert not validate_instance(inst).ok


def test_instance_accessors(three_player_instance):
    inst = three_player_instance
    assert inst.n == 3
    assert inst.ids == (1, 2, 3)
    assert inst.player(2).type_ == Fraction(2)
    assert inst.types() == {1: Fraction(3), 2: Fraction(2), 3: Fraction(1)}
    with pytest.raises(KeyError):
        inst.player(9)
