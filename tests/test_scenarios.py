import json
from dataclasses import replace
from fractions import Fraction

import pytest

from stakegame import (
    AffineValue,
    FixedWinner,
    IdentityValue,
    MuAll,
    MuAlpha,
    MuEll,
    MuStar,
    BUILTIN_SCENARIOS,
    ScenarioError,
    TableValue,
    builtin_scenario,
    load_scenario,
    parse_scenario,
)
from stakegame.scenarios import _KINDS

from conftest import BUILTIN_DECLARATIONS


def minimal_scenario_dict():
    return {
        "players": [
            {"id": 1, "type": "3", "stake": "1"},
            {"id": 2, "type": "2", "stake": "1"},
        ],
        "policy": {"kind": "mu_star"},
        "tau_threshold": "1/2",
        "budget": "1",
        "rounds": 5,
    }


class TestParse:
    def test_minimal(self):
        sc = parse_scenario(minimal_scenario_dict())
        assert sc.instance.n == 2
        assert isinstance(sc.policy, MuStar)
        assert sc.behavior == "myopic"
        assert sc.mode == "expected"

    def test_rational_strings_exact(self):
        data = minimal_scenario_dict()
        data["players"][0]["stake"] = "3/2"
        data["budget"] = "0.25"
        sc = parse_scenario(data)
        assert sc.instance.stakes()[1] == Fraction(3, 2)
        assert sc.instance.budget == Fraction(1, 4)

    def test_unknown_top_level_field(self):
        data = minimal_scenario_dict()
        data["budgett"] = "1"
        with pytest.raises(ScenarioError, match="budgett"):
            parse_scenario(data)

    def test_unknown_player_field(self):
        data = minimal_scenario_dict()
        data["players"][0]["stakee"] = "1"
        with pytest.raises(ScenarioError):
            parse_scenario(data)

    def test_missing_required(self):
        data = minimal_scenario_dict()
        del data["budget"]
        with pytest.raises(ScenarioError, match="budget"):
            parse_scenario(data)

    def test_sampled_needs_seed(self):
        data = minimal_scenario_dict()
        data["mode"] = "sampled"
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(data)

    def test_invalid_instance_rejected(self):
        data = minimal_scenario_dict()
        data["players"][0]["type"] = "1/2"
        with pytest.raises(ScenarioError, match="type"):
            parse_scenario(data)

    def test_policy_parameters(self):
        data = minimal_scenario_dict()
        data["policy"] = {"kind": "mu_alpha", "alpha": "1/2"}
        sc = parse_scenario(data)
        assert sc.policy == MuAlpha(alpha=Fraction(1, 2))

    def test_unknown_policy(self):
        data = minimal_scenario_dict()
        data["policy"] = {"kind": "mu_random"}
        with pytest.raises(ScenarioError):
            parse_scenario(data)

    def test_value_table(self):
        data = minimal_scenario_dict()
        data["value_function"] = {"kind": "table", "values": {"1": "1", "2": "3/2"}}
        sc = parse_scenario(data)
        assert sc.instance.value_function(2) == Fraction(3, 2)

    @pytest.mark.parametrize("table, message", [
        ({}, "missing 'values'"),
        ({"values": ["1", "2"]}, "'values' must map level -> value"),
        ({"values": {"x": "1"}}, "level: not an integer: 'x'"),
        ({"values": {"1": "1", "2": "a"}}, "value of level 2: not a number: 'a'"),
    ], ids=["missing", "not an object", "level", "value"])
    def test_malformed_value_table(self, table, message):
        data = minimal_scenario_dict()
        data["value_function"] = {"kind": "table", **table}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(data)
        assert str(exc.value) == f"value_function table: {message}"


# A case per kind, and for each field a case off its default: the file
# spelling, then the object the reader builds from it.
POLICIES = [
    ({"kind": "mu_alpha", "alpha": "3/8"}, MuAlpha(alpha=Fraction(3, 8))),
    ({"kind": "mu_star"}, MuStar()),
    ({"kind": "mu_star", "epsilon": "1/10"}, MuStar(epsilon=Fraction(1, 10))),
    ({"kind": "mu_all"}, MuAll()),
    ({"kind": "mu_ell"}, MuEll()),
    ({"kind": "fixed_winner", "winner": 2}, FixedWinner(winner=2)),
]
VALUE_FUNCTIONS = {
    "identity": ({"kind": "identity"}, IdentityValue()),
    "affine": (
        {"kind": "affine", "slope": "3/2", "intercept": "1/4"},
        AffineValue(slope=Fraction(3, 2), intercept=Fraction(1, 4)),
    ),
    "table": (
        {"kind": "table", "values": {"1": "1", "2": "5/2"}},
        TableValue(((1, Fraction(1)), (2, Fraction(5, 2)))),
    ),
    "table-3-levels": (
        {"kind": "table", "values": {"1": "1/2", "2": "1/2", "3": "7"}},
        TableValue(((1, Fraction(1, 2)), (2, Fraction(1, 2)), (3, Fraction(7)))),
    ),
}


def write_json(tmp_path, data):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestRoundTrip:
    def test_every_kind_and_field_has_a_case(self):
        written = {
            "policy": [spec for spec, _ in POLICIES],
            "value_function": [spec for spec, _ in VALUE_FUNCTIONS.values()],
        }
        for family, kinds in _KINDS.items():
            for kind, (_, readers) in kinds.items():
                fields = {field for spec in written[family] if spec["kind"] == kind
                          for field in spec}
                assert fields == {"kind", *readers}, (family, kind)

    @pytest.mark.parametrize("name", ["example1-myopic", "example2-lookahead", "example3-muell"])
    def test_builtin_round_trip(self, name, tmp_path):
        sc = builtin_scenario(name)
        loaded = load_scenario(write_json(tmp_path, BUILTIN_DECLARATIONS[name]))
        assert loaded == sc
        assert loaded.instance == sc.instance
        assert loaded.policy == sc.policy

    @pytest.mark.parametrize("spec, policy", POLICIES, ids=[repr(p) for _, p in POLICIES])
    def test_every_policy_round_trips(self, spec, policy):
        base = parse_scenario(minimal_scenario_dict())
        loaded = parse_scenario(dict(minimal_scenario_dict(), policy=spec))
        assert loaded == replace(base, policy=policy)
        assert loaded.policy == policy

    @pytest.mark.parametrize(
        "spec, value_function", VALUE_FUNCTIONS.values(), ids=list(VALUE_FUNCTIONS)
    )
    def test_seeded_sampled_scenario_round_trips(self, spec, value_function, tmp_path):
        data = dict(minimal_scenario_dict(), name="seeded", mode="sampled", seed=11,
                    value_function=spec)
        sc = parse_scenario(data)
        assert (sc.name, sc.mode, sc.seed) == ("seeded", "sampled", 11)
        assert sc.instance.value_function == value_function
        assert load_scenario(write_json(tmp_path, data)) == sc

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(str(path))


def test_unknown_builtin():
    with pytest.raises(ScenarioError) as exc:
        builtin_scenario("example9")
    assert str(exc.value).endswith(
        "available: example1-myopic, example2-lookahead, example3-muell"
    )


def test_builtin_names_in_order():
    assert BUILTIN_SCENARIOS == ("example1-myopic", "example2-lookahead", "example3-muell")


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_builtin_declaration(name):
    assert parse_scenario(BUILTIN_DECLARATIONS[name]) == builtin_scenario(name)
