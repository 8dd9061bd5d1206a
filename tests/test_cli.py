import contextlib
import copy
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRun:
    def test_builtin_writes_golden_trace(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, out = run_cli(capsys, "run", "example1-myopic", "-o", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["final_stakes"] == {"1": "5", "2": "2", "3": "1"}
        assert summary["min_d"] == 1
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6  # header + 5 rounds

    def test_theta_reported(self, capsys):
        code, out = run_cli(capsys, "run", "example1-myopic", "--theta")
        assert code == 0
        summary = json.loads(out)
        assert summary["theta"] == "1"
        assert summary["rounds_below_theta"] == []

    def test_theta_none_when_never_harmful(self, capsys):
        # the simulating policy's trajectory never makes anyone harmful
        code, out = run_cli(capsys, "run", "example3-muell", "--theta")
        assert code == 0
        summary = json.loads(out)
        assert summary["theta"] is None
        assert summary["rounds_below_theta"] == []

    def test_theta_follows_the_recorded_lookahead_trajectory(self, capsys, tmp_path):
        # the myopic re-run of this scenario never harms anyone (theta null),
        # but on the planned trajectory player 1 is harmed at value 1
        scenario = {
            "players": [
                {"id": 1, "type": "3", "stake": "5"},
                {"id": 2, "type": "3", "stake": "3"},
                {"id": 3, "type": "2", "stake": "4"},
            ],
            "policy": {"kind": "mu_star"},
            "tau_threshold": "1/2",
            "budget": "1",
            "rounds": 10,
            "behavior": "lookahead",
        }
        path = tmp_path / "planned.json"
        path.write_text(json.dumps(scenario))
        code, out = run_cli(capsys, "run", str(path), "--theta")
        assert code == 0
        summary = json.loads(out)
        assert summary["theta"] == "1"

    def test_scenario_file(self, capsys, tmp_path):
        scenario = {
            "players": [
                {"id": 1, "type": "2", "stake": "4"},
                {"id": 2, "type": "1", "stake": "4"},
            ],
            "policy": {"kind": "mu_star"},
            "tau_threshold": "1/2",
            "budget": "1",
            "rounds": 3,
        }
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(scenario))
        code, out = run_cli(capsys, "run", str(path))
        assert code == 0
        assert json.loads(out)["rounds"] == 3

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"players": []}')
        code, _ = run_cli(capsys, "run", str(path))
        assert code == 2


TWO_PLAYERS = {
    "players": [
        {"id": 1, "type": "2", "stake": "5"},
        {"id": 2, "type": "1", "stake": "3"},
    ],
    "policy": {"kind": "mu_star"},
    "tau_threshold": "1/2",
    "budget": "1",
    "rounds": 3,
}


def set_player_field(key, value):
    def mutate(scenario):
        scenario["players"][0][key] = value
    return mutate


def set_fields(**fields):
    return lambda scenario: scenario.update(fields)


MALFORMED = {
    "player id": set_player_field("id", "a"),
    "stake": set_player_field("stake", "foo"),
    "alpha zero denominator": set_fields(policy={"kind": "mu_alpha", "alpha": "1/0"}),
    "alpha above 1": set_fields(policy={"kind": "mu_alpha", "alpha": 3}),
    "horizon cap 0": set_fields(horizon_cap=0, behavior="lookahead"),
    "mu_ell horizon cap 0": set_fields(policy={"kind": "mu_ell", "horizon_cap": 0}),
    # the shadow run is bounded by the top-level horizon_cap; mu_ell has no cap
    "mu_ell horizon cap": set_fields(policy={"kind": "mu_ell", "horizon_cap": 5}),
    "fixed winner not a player": set_fields(policy={"kind": "fixed_winner", "winner": 9}),
    "fixed winner missing": set_fields(policy={"kind": "fixed_winner"}),
    "epsilon above 1": set_fields(policy={"kind": "mu_star", "epsilon": "2"}),
    "negative epsilon": set_fields(policy={"kind": "mu_star", "epsilon": "-1/2"}),
    "affine value without slope": set_fields(
        value_function={"kind": "affine", "intercept": "1"}),
    "table level": set_fields(value_function={"kind": "table", "values": {"x": "1"}}),
    "fractional rounds": set_fields(rounds=2.5),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_exits_2(capsys, tmp_path, case):
    scenario = copy.deepcopy(TWO_PLAYERS)
    MALFORMED[case](scenario)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("scenario error:")
    assert "Traceback" not in captured.err


# Field values that are malformed, out of range, or valid, mixed.
ODD_VALUES = st.sampled_from(
    [0, 1, 2, 3, 9, -1, "1/2", "3/2", "-1/2", "1/0", "0.25", "a", "", None, True,
     0.5, [], {}]
)
ODD_POLICIES = st.one_of(
    st.builds(lambda v: {"kind": "mu_alpha", "alpha": v}, ODD_VALUES),
    st.builds(lambda v: {"kind": "mu_star", "epsilon": v}, ODD_VALUES),
    st.builds(lambda v: {"kind": "mu_ell", "horizon_cap": v}, ODD_VALUES),
    st.builds(lambda v: {"kind": "fixed_winner", "winner": v}, ODD_VALUES),
    st.just({"kind": "mu_all"}),
    st.builds(lambda v: {"kind": v}, ODD_VALUES),
    ODD_VALUES,
)
ODD_VALUE_FUNCTIONS = st.one_of(
    st.builds(lambda a, b: {"kind": "affine", "slope": a, "intercept": b},
              ODD_VALUES, ODD_VALUES),
    st.builds(lambda a, b: {"kind": "table", "values": {"1": a, "2": b}},
              ODD_VALUES, ODD_VALUES),
    st.just({"kind": "identity"}),
    ODD_VALUES,
)
TOP_FIELDS = st.sampled_from(
    ["tau_threshold", "budget", "rounds", "seed", "horizon_cap", "name", "nonsense"]
)


@st.composite
def mutated_scenarios(draw):
    scenario = copy.deepcopy(TWO_PLAYERS)
    scenario["behavior"] = draw(st.sampled_from(["myopic", "lookahead", "planning"]))
    scenario["mode"] = draw(st.sampled_from(["expected", "sampled", 3]))
    scenario["seed"] = 5
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(["player", "top", "policy", "value"]))
        if target == "player":
            entry = scenario["players"][draw(st.integers(0, 1))]
            entry[draw(st.sampled_from(["id", "type", "stake", "cost"]))] = draw(ODD_VALUES)
        elif target == "top":
            value = draw(ODD_VALUES)
            scenario[draw(TOP_FIELDS)] = min(value, 3) if isinstance(value, int) else value
        elif target == "policy":
            scenario["policy"] = draw(ODD_POLICIES)
        else:
            scenario["value_function"] = draw(ODD_VALUE_FUNCTIONS)
    if draw(st.booleans()):
        del scenario[draw(st.sampled_from(sorted(scenario)))]
    return scenario


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(scenario=mutated_scenarios())
def test_mutated_scenarios_keep_the_exit_code_contract(fuzz_dir, scenario):
    path = fuzz_dir / "scenario.json"
    path.write_text(json.dumps(scenario))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out.getvalue())
    elif code == 2:
        assert err.getvalue().startswith("scenario error:")


class TestVerify:
    def test_paper_tables(self, capsys):
        code, out = run_cli(capsys, "verify", "paper_tables")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_axioms(self, capsys):
        code, out = run_cli(capsys, "verify", "axioms", "--n-max", "3", "--grid", "1,2,3")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] and report["checked"] > 0

    def test_invariance(self, capsys):
        code, out = run_cli(capsys, "verify", "invariance", "--triples", "5", "--steps", "10")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_sybil(self, capsys):
        code, out = run_cli(capsys, "verify", "sybil")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_oracle(self, capsys):
        code, out = run_cli(capsys, "verify", "oracle", "--instances", "25")
        assert code == 0
        assert json.loads(out)["ok"]


class TestSweep:
    def test_rounds_sweep(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out = run_cli(
            capsys, "sweep", "example1-myopic",
            "--parameter", "rounds", "--values", "2,4",
            "--output-dir", str(out_dir),
        )
        assert code == 0
        with open(out_dir / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rounds", "share_1", "share_2", "share_3", "min_d"]
        assert len(rows) == 3

    def test_alpha_sweep_matches_longrun_share(self, capsys, tmp_path):
        from fractions import Fraction

        from stakegame import VirtualStakeState, selection_probabilities

        scenario = {
            "players": [
                {"id": 1, "type": "2", "stake": "1"},
                {"id": 2, "type": "1", "stake": "1"},
            ],
            "policy": {"kind": "mu_alpha", "alpha": "0"},
            "tau_threshold": "1/2",
            "budget": "1",
            "rounds": 40,
        }
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(scenario))
        out_dir = tmp_path / "sweep"
        code, _ = run_cli(
            capsys, "sweep", str(path),
            "--parameter", "alpha", "--values", "0,1/2,1",
            "--output-dir", str(out_dir),
        )
        assert code == 0
        with open(out_dir / "summary.csv") as fh:
            rows = {r[0]: r for r in list(csv.reader(fh))[1:]}
        # after t rounds the share tends to w; check the alpha = 1/2 row
        state = VirtualStakeState.build(Fraction(1, 2), {1: 2, 2: 1}, {1: 1, 2: 1})
        w = selection_probabilities(state)
        share_1 = Fraction(rows["1/2"][1])
        assert abs(share_1 - w[1]) < Fraction(1, 100)

    def test_empty_values_rejected(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "sweep", "example1-myopic",
            "--parameter", "rounds", "--values", "",
            "--output-dir", str(tmp_path / "x"),
        )
        assert code == 2

    def test_m_sweep_decreasing_top_share(self, capsys, tmp_path):
        from fractions import Fraction

        scenario = {
            "players": [
                {"id": 1, "type": "3", "stake": "1"},
                {"id": 2, "type": "1", "stake": "12"},
            ],
            "policy": {"kind": "mu_alpha", "alpha": "1/2"},
            "tau_threshold": "1/2",
            "budget": "1",
            "rounds": 30,
        }
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(scenario))
        out_dir = tmp_path / "sweep"
        code, _ = run_cli(
            capsys, "sweep", str(path),
            "--parameter", "M", "--values", "10,100,1000",
            "--output-dir", str(out_dir),
        )
        assert code == 0
        with open(out_dir / "summary.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        shares = [Fraction(r[1]) for r in rows]
        assert shares[0] > shares[1] > shares[2]


MU_ALPHA = dict(TWO_PLAYERS, policy={"kind": "mu_alpha", "alpha": "1/2"})

# Option values the CLI reads with the scenario file's checks: argv, and the
# scenario file a sweep runs (None for verify).
MALFORMED_OPTIONS = {
    "sweep alpha not a number": (["sweep", "--parameter", "alpha", "--values", "foo"], MU_ALPHA),
    "sweep alpha zero denominator": (
        ["sweep", "--parameter", "alpha", "--values", "1/0"], MU_ALPHA),
    "sweep alpha above 1": (["sweep", "--parameter", "alpha", "--values", "0,3"], MU_ALPHA),
    "sweep epsilon above 1": (["sweep", "--parameter", "epsilon", "--values", "2"], TWO_PLAYERS),
    "sweep epsilon negative": (
        ["sweep", "--parameter", "epsilon", "--values=-1/2"], TWO_PLAYERS),
    "sweep rounds 0": (["sweep", "--parameter", "rounds", "--values", "0"], TWO_PLAYERS),
    "sweep rounds not an integer": (
        ["sweep", "--parameter", "rounds", "--values", "5/2"], TWO_PLAYERS),
    "sweep M 0": (["sweep", "--parameter", "M", "--values", "0"], MU_ALPHA),
    "verify grid not a number": (["verify", "axioms", "--grid", "foo"], None),
    "verify grid zero denominator": (["verify", "axioms", "--grid", "1/0"], None),
    "verify tau not a number": (["verify", "axioms", "--tau", "foo"], None),
    "verify tau above 1": (["verify", "axioms", "--tau", "1/2,2"], None),
    "verify n-max 1": (["verify", "axioms", "--n-max", "1"], None),
    "verify triples negative": (["verify", "invariance", "--triples", "-1"], None),
    "verify steps negative": (["verify", "invariance", "--steps", "-1"], None),
    "verify steps 0": (["verify", "invariance", "--steps", "0"], None),
    "verify instances negative": (["verify", "oracle", "--instances", "-1"], None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_OPTIONS))
def test_malformed_option_exits_2(capsys, tmp_path, case):
    argv, scenario = MALFORMED_OPTIONS[case]
    if scenario is not None:
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(scenario))
        out_dir = tmp_path / "sweep"
        argv = argv[:1] + [str(path)] + argv[1:] + ["--output-dir", str(out_dir)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("scenario error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    if scenario is not None:
        assert not out_dir.exists()


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
