import argparse
import contextlib
import copy
import csv
import gc
import io
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakegame import MuAll, MuEll, cli
from stakegame.cli import main
from stakegame.measures import AxiomReport
from stakegame.sybil import SybilConditionEntry, SybilConditionReport, SybilSplit
from stakegame.virtualstake import InvarianceReport

from conftest import BUILTIN_DECLARATIONS


DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


LOOKAHEAD_MU_STAR_EPSILON_STDOUT = (
    '{"scenario": "lookahead-mu-star-epsilon", "rounds": 100, '
    '"final_stakes": {"1": "687/10", "2": "4033/150", "3": "36583/13650", '
    '"4": "36583/13650", "5": "36583/13650", "6": "50233/13650", "7": "63883/13650", '
    '"8": "36583/13650", "9": "63883/13650", "10": "36583/13650", "11": "63883/13650", '
    '"12": "63883/13650", "13": "22933/13650", "14": "50233/13650", "15": "50233/13650", '
    '"16": "4801/1050"}, "min_d": 2, "max_d": 7, "theta": "2", "rounds_below_theta": []}\n'
)


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

    def test_lookahead_walks_that_pay_every_player(self, capsys, tmp_path):
        # 16 lookahead players under MuStar(1/10): every step of every
        # recovery walk pays all participants; stdout and trace pinned byte
        # for byte
        out_path = tmp_path / "t.csv"
        code, out = run_cli(
            capsys, "run", str(DATA / "scenarios" / "lookahead_mu_star_epsilon.json"),
            "--theta", "-o", str(out_path),
        )
        assert code == 0
        assert out == LOOKAHEAD_MU_STAR_EPSILON_STDOUT
        assert out_path.read_bytes() == (DATA / "lookahead_mu_star_epsilon.csv").read_bytes()

    def test_sampled_scenario_file_writes_golden_trace(self, capsys, tmp_path):
        # the scenario file of tests/test_golden_traces.py's sampled MuStar(1/10)
        # run: mixed rounds draw their winners along the round's ranking
        out_path = tmp_path / "t.csv"
        code, _ = run_cli(
            capsys, "run", str(DATA / "scenarios" / "sampled_mu_star_epsilon.json"),
            "-o", str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == (DATA / "sampled_mu_star_epsilon.csv").read_bytes()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--parameter", "rounds",
                                                    "--values", "1"]])
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, command):
        # scenario files are UTF-8 JSON, whatever the locale's codec
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"name": "a\xffb"}')
        out_dir = tmp_path / "sweep"
        argv = command[:1] + [str(path)] + command[1:]
        if command[0] == "sweep":
            argv += ["--output-dir", str(out_dir)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("scenario error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not out_dir.exists()


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
    # JSON booleans are not integers, though Python's int() takes them
    "boolean rounds": set_fields(rounds=True),
    "boolean horizon cap": set_fields(horizon_cap=True, behavior="lookahead"),
    "boolean seed": set_fields(seed=False),
    "boolean player id": set_player_field("id", True),
    "boolean fixed winner": set_fields(policy={"kind": "fixed_winner", "winner": True}),
    # a mutation that returns a value replaces the whole scenario with it
    "top level not an object": lambda scenario: [scenario],
    "no players": set_fields(players=[]),
    "player not an object": set_fields(players=[1]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_exits_2(capsys, tmp_path, case):
    scenario = copy.deepcopy(TWO_PLAYERS)
    scenario = MALFORMED[case](scenario) or scenario
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("scenario error:")
    assert "Traceback" not in captured.err


# Files that cannot be read or written, under a scratch directory that holds
# one empty file, "file".
IO_ERRORS = {
    "missing scenario file": ["run", "{tmp}/missing.json"],
    "scenario path is a directory": ["run", "{tmp}"],
    "trace under a missing directory": ["run", "example1-myopic", "-o", "{tmp}/missing/t.csv"],
    "sweep output dir is a file": [
        "sweep", "example1-myopic", "--parameter", "rounds", "--values", "1",
        "--output-dir", "{tmp}/file",
    ],
}


@pytest.mark.parametrize("case", sorted(IO_ERRORS))
def test_io_error_exits_2(capsys, tmp_path, case):
    (tmp_path / "file").write_text("")
    code = main([arg.format(tmp=tmp_path) for arg in IO_ERRORS[case]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("io error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("value_function", [
    {"kind": "affine", "slope": "1", "intercept": "-5"},
    {"kind": "table", "values": {"1": "-3", "2": "-2", "3": "-1"}},
], ids=["affine", "table"])
def test_negative_value_function_exits_2(capsys, tmp_path, value_function):
    path = tmp_path / "sc.json"
    builtin = BUILTIN_DECLARATIONS["example1-myopic"]
    path.write_text(json.dumps(dict(builtin, value_function=value_function)))
    code = main(["run", str(path), "--theta"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "scenario error: invalid instance: value function is negative at level 1\n"
    )


@pytest.mark.parametrize("fields, error", [
    ({}, "invalid instance: player ids are not unique"),
    # a field parsed on the way to the instance still names itself
    ({"budget": "x"}, "budget: not a number: 'x'"),
], ids=["repeat", "repeat and bad budget"])
def test_repeated_player_id_exits_2(capsys, tmp_path, fields, error):
    scenario = dict(copy.deepcopy(TWO_PLAYERS), **fields)
    scenario["players"][1]["id"] = 1
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(scenario))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"scenario error: {error}\n"


@pytest.mark.parametrize("family", ["policy", "value_function"])
@pytest.mark.parametrize("kind", [["mu_star"], {"kind": "mu_star"}, None], ids=repr)
def test_non_string_kind_exits_2(capsys, tmp_path, family, kind):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TWO_PLAYERS, **{family: {"kind": kind}})))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"scenario error: {family}: unknown kind {kind!r}\n"


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


SYBIL_REPORT = '{"suite": "sybil", "allpay_best_gain": "8/15", "problems": [], "ok": true}\n'


class TestVerify:
    """Each suite's exact stdout at fixed options: its JSON is pinned byte for byte."""

    def test_paper_tables(self, capsys):
        code, out = run_cli(capsys, "verify", "paper_tables")
        assert code == 0
        assert out == '{"suite": "paper_tables", "traces": 3, "mismatches": [], "ok": true}\n'

    def test_axioms(self, capsys):
        code, out = run_cli(capsys, "verify", "axioms", "--n-max", "3", "--grid", "1,2,3")
        assert code == 0
        assert out == '{"suite": "axioms", "checked": 57, "violations": [], "ok": true}\n'

    def test_invariance(self, capsys):
        code, out = run_cli(capsys, "verify", "invariance", "--triples", "5", "--steps", "10")
        assert code == 0
        assert out == (
            '{"suite": "invariance", "triples": 5, "steps": 10, "failures": [], "ok": true}\n'
        )

    def test_sybil(self, capsys):
        code, out = run_cli(capsys, "verify", "sybil")
        assert code == 0
        assert out == SYBIL_REPORT

    def test_oracle(self, capsys):
        code, out = run_cli(capsys, "verify", "oracle", "--instances", "25")
        assert code == 0
        assert out == '{"suite": "oracle", "instances": 25, "mismatches": [], "ok": true}\n'


def failed_verify(capsys, *argv):
    """Run a verify suite that must fail: exit 1 and a JSON report with ok false."""
    code, out = run_cli(capsys, "verify", *argv)
    report = json.loads(out)
    assert code == 1
    assert report["ok"] is False
    return report


class TestVerifyFailures:
    """Each suite's failure report, with the check it calls made to fail."""

    @staticmethod
    def edit_golden(monkeypatch, filename, edit):
        """Serve one golden CSV's rows through ``edit``; return the real rows."""
        real = cli._load_golden
        monkeypatch.setattr(
            cli, "_load_golden", lambda name: edit(real(name)) if name == filename else real(name)
        )
        return real(filename)

    def test_paper_tables_row_mismatch(self, capsys, monkeypatch):
        got = cli._load_golden("example2-lookahead.csv")[3]
        want = got[:-1] + ["9"]
        self.edit_golden(monkeypatch, "example2-lookahead.csv",
                         lambda rows: rows[:3] + [want] + rows[4:])
        report = failed_verify(capsys, "paper_tables")
        assert report["mismatches"] == [
            {"trace": "example2-lookahead", "row": 3, "got": got, "want": want}
        ]

    def test_paper_tables_length_mismatch(self, capsys, monkeypatch):
        rows = self.edit_golden(monkeypatch, "example1-myopic.csv",
                                lambda rows: rows + [rows[-1]])
        report = failed_verify(capsys, "paper_tables")
        assert report["mismatches"] == [
            {"trace": "example1-myopic", "rows": len(rows), "expected": len(rows) + 1}
        ]

    def test_axioms(self, capsys, monkeypatch):
        def check(measure, n_max, grid):
            return AxiomReport(checked=2, removal_violations=["removal raises d at (2, 1)"])

        monkeypatch.setattr(cli, "check_decentralization_axioms", check)
        report = failed_verify(capsys, "axioms", "--tau", "1/3,1/2")
        assert report == {
            "suite": "axioms", "checked": 4, "ok": False,
            "violations": ["tau=1/3: removal raises d at (2, 1)",
                           "tau=1/2: removal raises d at (2, 1)"],
        }

    def test_invariance(self, capsys, monkeypatch):
        alphas = []

        def check(state, steps):
            alphas.append(state.alpha)
            # only the second triple breaks
            return InvarianceReport(steps=steps, probability_breaks=[1] * (len(alphas) == 2))

        monkeypatch.setattr(cli, "check_invariance", check)
        report = failed_verify(capsys, "invariance", "--triples", "3", "--steps", "4")
        assert len(alphas) == 3
        assert report == {
            "suite": "invariance", "triples": 3, "steps": 4, "ok": False,
            "failures": [{"trial": 1, "alpha": str(alphas[1])}],
        }

    def test_sybil_condition_violated(self, capsys, monkeypatch):
        def condition(*args, **kwargs):
            entry = SybilConditionEntry(1, (), SybilSplit(1, ((Fraction(3), Fraction(3)),)), 2, satisfied=False)
            return SybilConditionReport(checked=1, entries=[entry])

        monkeypatch.setattr(cli, "sybil_proofness_condition", condition)
        report = failed_verify(capsys, "sybil")
        assert report["problems"] == ["proofness condition violated on the small-gap fixture"]

    def test_sybil_gain_under_winner_take_all(self, capsys, monkeypatch):
        real = cli.max_sybil_gain

        def search(owner, stakes, instance, policy, granularity, max_parts):
            if isinstance(policy, MuEll) and owner == 2:
                half = (Fraction(1, 2), Fraction(1))
                return Fraction(1, 3), SybilSplit(2, (half, half))
            return real(owner, stakes, instance, policy, granularity, max_parts)

        monkeypatch.setattr(cli, "max_sybil_gain", search)
        report = failed_verify(capsys, "sybil")
        assert report["problems"] == [
            "player 2 gains 1/3 under the winner-take-all policy "
            "via [('1/2', '1'), ('1/2', '1')]"
        ]
        assert report["allpay_best_gain"] == "8/15"

    def test_sybil_all_pay_not_profitable(self, capsys, monkeypatch):
        real = cli.max_sybil_gain

        def search(owner, stakes, instance, policy, granularity, max_parts):
            if isinstance(policy, MuAll):
                return Fraction(0), SybilSplit(owner, ((stakes[owner], Fraction(1)),))
            return real(owner, stakes, instance, policy, granularity, max_parts)

        monkeypatch.setattr(cli, "max_sybil_gain", search)
        report = failed_verify(capsys, "sybil")
        assert report == {
            "suite": "sybil", "allpay_best_gain": "0", "ok": False,
            "problems": ["expected a profitable split under the all-pay policy"],
        }

    def test_oracle(self, capsys, monkeypatch):
        real = cli.brute_force_equilibrium
        calls = []

        def oracle(stakes, instance, policy):
            # a second equilibrium on the first instance only
            calls.append((dict(stakes), real(stakes, instance, policy)))
            return calls[-1][1] + [frozenset()] * (len(calls) == 1)

        monkeypatch.setattr(cli, "brute_force_equilibrium", oracle)
        report = failed_verify(capsys, "oracle", "--instances", "2")
        stakes, [eq] = calls[0]
        assert len(calls) == 2
        assert report["mismatches"] == [{
            "trial": 0,
            "stakes": {str(k): str(v) for k, v in stakes.items()},
            "solver": sorted(eq),
            "oracle": [sorted(eq), []],
        }]


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
        assert rows == [
            ["rounds", "share_1", "share_2", "share_3", "min_d"],
            ["2", "3/5", "1/5", "1/5", "2"],
            ["4", "4/7", "2/7", "1/7", "2"],
        ]

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

    def test_epsilon_sweep(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, _ = run_cli(
            capsys, "sweep", "example1-myopic",
            "--parameter", "epsilon", "--values", "0,1/10,1",
            "--output-dir", str(out_dir),
        )
        assert code == 0
        with open(out_dir / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        # epsilon 0 is the builtin itself: final stakes 5, 2, 1; at epsilon 1
        # the top's share is zero and the others split each budget
        assert rows == [
            ["epsilon", "share_1", "share_2", "share_3", "min_d"],
            ["0", "5/8", "1/4", "1/8", "1"],
            ["1/10", "23/40", "21/80", "13/80", "1"],
            ["1", "1/8", "7/16", "7/16", "2"],
        ]
        assert (out_dir / "trace_epsilon_1_10.csv").exists()

    def test_alpha_sweep_over_fractional_types(self, capsys, tmp_path):
        # the checked-in scenario is the golden mu_alpha_expected trajectory
        out_dir = tmp_path / "sweep"
        code, _ = run_cli(
            capsys, "sweep", str(DATA / "scenarios" / "mu_alpha_fractional.json"),
            "--parameter", "alpha", "--values", "0,3/8,1",
            "--output-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "summary.csv").read_bytes().decode() == (
            "alpha,share_1,share_2,share_3,share_4,share_5,min_d\r\n"
            "0,9/20,33/400,11/50,33/200,33/400,2\r\n"
            "3/8,265932/639965,493447934211/3651272950090,509348119/2560499965,"
            "262006329831/1825636475045,390226591491/3651272950090,2\r\n"
            "1,17244/54655,5458275309/24470245910,4524331/28256635,"
            "1778197719/12235122955,346998759/2224567810,2\r\n"
        )
        golden = (DATA / "mu_alpha_expected.csv").read_bytes()
        assert (out_dir / "trace_alpha_3_8.csv").read_bytes() == golden

    def test_m_sweep_over_fractional_types(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, _ = run_cli(
            capsys, "sweep", str(DATA / "scenarios" / "mu_alpha_fractional.json"),
            "--parameter", "M", "--values", "1,2",
            "--output-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "summary.csv").read_bytes().decode() == (
            "M,share_1,share_2,share_3,share_4,share_5,min_d\r\n"
            "1,714/3557,644/3557,756/3557,735/3557,708/3557,3\r\n"
            "2,77/358,518/4117,1855/8234,1813/8234,1759/8234,3\r\n"
        )

    @pytest.mark.parametrize("parameter, scenario, kind", [
        ("alpha", "example1-myopic", "mu_alpha"),
        ("M", "example1-myopic", "mu_alpha"),
        ("epsilon", str(DATA / "scenarios" / "mu_alpha_fractional.json"), "mu_star"),
        ("alpha", "example3-muell", "mu_alpha"),
        ("epsilon", "example3-muell", "mu_star"),
    ], ids=lambda x: Path(x).name)
    def test_wrong_policy_kind(self, capsys, tmp_path, parameter, scenario, kind):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", scenario, "--parameter", parameter, "--values", "1/2",
                     "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"scenario error: sweep {parameter}: scenario policy must be {kind}\n"
        assert not out_dir.exists()

    def test_help(self, capsys, monkeypatch):
        # wide enough that no argparse version wraps the usage line
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (
            "usage: stakegame sweep [-h] --parameter {alpha,M,rounds,epsilon} --values VALUES "
            "--output-dir OUTPUT_DIR scenario\n"
            "\n"
            "positional arguments:\n"
            "  scenario\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --parameter {alpha,M,rounds,epsilon}\n"
            "  --values VALUES       comma separated values\n"
            "  --output-dir OUTPUT_DIR\n"
        )

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


# A recovery plan that overruns the cap: the heavy player waits for the
# others to grow past a steep value table.
HORIZON_OVERRUN = {
    "players": [
        {"id": 1, "type": "3", "stake": "10"},
        {"id": 2, "type": "2", "stake": "1"},
        {"id": 3, "type": "1", "stake": "1"},
    ],
    "policy": {"kind": "mu_all"},
    "tau_threshold": "1/2",
    "budget": "1",
    "rounds": 2,
    "behavior": "lookahead",
    "value_function": {"kind": "table", "values": {"1": "1", "2": "100", "3": "1000"}},
    "horizon_cap": 3,
}


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--parameter", "rounds", "--values", "1,2"],
], ids=lambda command: command[0])
def test_horizon_overrun_exits_1(capsys, tmp_path, command):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(HORIZON_OVERRUN))
    argv = command[:1] + [str(path)] + command[1:]
    if command[0] == "sweep":
        argv += ["--output-dir", str(tmp_path / "sweep")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    # one line, no traceback
    assert captured.err == "solver failed: player 1 has no recovery plan within 3 rounds\n"
    # a failed sweep writes nothing
    assert not (tmp_path / "sweep").exists()


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
    "sweep alpha on mu_star": (["sweep", "--parameter", "alpha", "--values", "1/2"], TWO_PLAYERS),
    "sweep epsilon on mu_alpha": (
        ["sweep", "--parameter", "epsilon", "--values", "1/10"], MU_ALPHA),
    "sweep M on mu_star": (["sweep", "--parameter", "M", "--values", "10"], TWO_PLAYERS),
    "sweep alpha repeated value": (
        ["sweep", "--parameter", "alpha", "--values", "1/2,0.5"], MU_ALPHA),
    "verify grid not a number": (["verify", "axioms", "--grid", "foo"], None),
    "verify grid zero denominator": (["verify", "axioms", "--grid", "1/0"], None),
    "verify grid negative": (["verify", "axioms", "--grid=-1,1,2", "--n-max", "3"], None),
    "verify grid all negative": (["verify", "axioms", "--grid=-1,-2"], None),
    "verify grid all zero": (["verify", "axioms", "--grid", "0,0"], None),
    "verify tau not a number": (["verify", "axioms", "--tau", "foo"], None),
    "verify tau above 1": (["verify", "axioms", "--tau", "1/2,2"], None),
    "verify n-max 1": (["verify", "axioms", "--n-max", "1"], None),
    "verify triples negative": (["verify", "invariance", "--triples", "-1"], None),
    "verify steps negative": (["verify", "invariance", "--steps", "-1"], None),
    "verify steps 0": (["verify", "invariance", "--steps", "0"], None),
    "verify instances negative": (["verify", "oracle", "--instances", "-1"], None),
    # every option is checked, whichever suite runs
    "verify sybil triples 0": (["verify", "sybil", "--triples", "0"], None),
    "verify sybil n-max 1": (["verify", "sybil", "--n-max", "1"], None),
    "verify paper_tables grid negative": (["verify", "paper_tables", "--grid=-1"], None),
    "verify oracle tau above 1": (["verify", "oracle", "--tau", "5"], None),
    "verify axioms instances not a number": (["verify", "axioms", "--instances", "x"], None),
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


EXAMPLE1_RUN = (
    '{"scenario": "example1-myopic", "rounds": 5, "final_stakes": '
    '{"1": "5", "2": "2", "3": "1"}, "min_d": 1, "max_d": 2}\n'
)


class TestSharedParser:
    """One parser serves every main call in a process; no call leaks into the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_option_values_do_not_carry_over(self, capsys):
        code, out = run_cli(capsys, "verify", "oracle", "--instances", "3")
        assert (code, json.loads(out)["instances"]) == (0, 3)
        code, out = run_cli(capsys, "verify", "oracle")
        assert (code, json.loads(out)["instances"]) == (0, 200)

    def test_flags_do_not_carry_over(self, capsys):
        code, out = run_cli(capsys, "run", "example1-myopic", "--theta")
        assert json.loads(out)["theta"] == "1"
        code, out = run_cli(capsys, "run", "example1-myopic")
        assert (code, out) == (0, EXAMPLE1_RUN)

    @pytest.mark.parametrize("argv, exit_code", [
        (["verify", "nonsense"], 2),
        (["run"], 2),
        (["--help"], 0),
        (["sweep", "--help"], 0),
    ])
    def test_good_call_after_an_exit(self, capsys, argv, exit_code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == exit_code
        capsys.readouterr()
        assert run_cli(capsys, "verify", "sybil") == (0, SYBIL_REPORT)
        assert run_cli(capsys, "run", "example1-myopic") == (0, EXAMPLE1_RUN)

    def test_interleaved_commands_match_fresh_parsers(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        calls = [
            ["run", "example2-lookahead", "--theta"],
            ["verify", "invariance", "--triples", "3", "--steps", "5", "--seed", "3"],
            ["sweep", "example1-myopic", "--parameter", "epsilon", "--values", "0,1/10",
             "--output-dir", str(out_dir)],
            ["verify", "axioms", "--n-max", "3"],
            ["run", "example3-muell"],
        ]

        def outputs(argv):
            code, out = run_cli(capsys, *argv)
            summary = (out_dir / "summary.csv").read_text() if argv[0] == "sweep" else None
            return code, out, summary

        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(outputs(argv))
        interleaved = [outputs(argv) for argv in calls + calls[::-1]]
        assert interleaved == alone + alone[::-1]

    def test_argparse_memory_stops_growing(self):
        def argparse_bytes():
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, argparse.__file__)]
            )
            return sum(stat.size for stat in snapshot.statistics("filename"))

        held = {}
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for call in range(1, 401):
                    assert main(["run", "example1-myopic"]) == 0
                    if call in (100, 400):
                        held[call] = argparse_bytes()
        finally:
            tracemalloc.stop()
        assert held[400] <= held[100] + 1024
