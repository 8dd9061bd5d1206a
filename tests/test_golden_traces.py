"""Seeded trajectories pinned byte for byte as CSV files under ``tests/data``.

They cover the paths the worked-example tables do not: sampled mode under
``MuAlpha`` and under ``MuStar`` with epsilon > 0 (fractional stakes, tied
stakes, tau other than 1/2), ``MuAll`` in expected mode (several players
paid per round, a costly player sitting out the first rounds), ``MuAlpha``
in expected mode (fractional types with coprime denominators, a budget of
3/2, a costly dominant stake sitting out the first rounds), the same
``MuAll`` and ``MuAlpha`` instances with lookahead players (exclusions in
the first rounds, so recovery walks run past one step), one 16-player
lookahead trajectory shaped like the ``lookahead_n16`` benchmark workload,
and one lookahead trajectory under a value table whose values have coprime
denominators, read from its scenario file (``MuAll``, 8 players; levels 1-3
are reached in round 1 and level 4 first in round 15), and one sampled
``MuAlpha`` trajectory with lookahead players, read from its scenario file
(6 players, fractional types, a budget of 3/2, two costly players; sets of
size 6, 5 and 3), where each drawn winner's budget moves the stakes that the
next round's weights and recovery walks start from.
A change to the solvers or the engine that is meant to be exact must leave
every file unchanged.

Regenerate the files only when trajectories are meant to change::

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import csv
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from stakegame import MuAll, MuAlpha, MuStar, Runner, load_scenario, run, trace_rows

from conftest import make_instance

DATA = Path(__file__).resolve().parent / "data"


def sampled_mu_alpha():
    inst = make_instance(
        [3, 7, 2, 5, 5, 1, 4],
        [Fraction(5, 2), 3, Fraction(5, 2), Fraction(7, 3), 1, 4, Fraction(1, 2)],
    )
    return run(inst, MuAlpha(Fraction(3, 8)), rounds=80, mode="sampled", seed=11)


def sampled_mu_star_epsilon():
    inst = make_instance(
        [4, 2, 6, 3, 1],
        [Fraction(7, 2), 2, 2, Fraction(3, 2), 3],
        tau=Fraction(2, 5),
    )
    return run(
        inst, MuStar(Fraction(1, 10)), behavior="lookahead", rounds=40,
        mode="sampled", seed=5,
    )


def mu_all_instance():
    return make_instance(
        [5, 3, 5, 1, 5],
        [2, Fraction(1, 2), 7, 1, 1],
        costs=[0, 0, Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)],
    )


def mu_all():
    return run(mu_all_instance(), MuAll(), rounds=12)


def mu_all_lookahead():
    return run(mu_all_instance(), MuAll(), behavior="lookahead", rounds=12)


def mu_alpha_instance():
    return make_instance(
        [Fraction(3, 2), Fraction(7, 3), 1, Fraction(5, 4), Fraction(11, 7)],
        [6, Fraction(1, 2), Fraction(7, 3), 1, Fraction(1, 2)],
        budget=Fraction(3, 2),
        costs=[Fraction(3, 2), 0, 0, 0, 0],
    )


def mu_alpha_expected():
    return run(mu_alpha_instance(), MuAlpha(Fraction(3, 8)), rounds=12)


def mu_alpha_lookahead():
    return run(mu_alpha_instance(), MuAlpha(Fraction(3, 8)), behavior="lookahead", rounds=12)


def lookahead_n16():
    rng = random.Random(20240)
    types = [rng.randint(1, 32) for _ in range(16)]
    stakes = [rng.randint(1, 4) for _ in range(16)]
    return run(make_instance(types, stakes), MuStar(), behavior="lookahead", rounds=16)


def table_value_scenario():
    return load_scenario(str(DATA / "scenarios" / "lookahead_table_value.json"))


def scenario_trace(scenario):
    return run(
        scenario.instance, scenario.policy, behavior=scenario.behavior, rounds=scenario.rounds,
        mode=scenario.mode, seed=scenario.seed, horizon_cap=scenario.horizon_cap,
    )


def lookahead_table_value():
    return scenario_trace(table_value_scenario())


def sampled_mu_alpha_lookahead():
    return scenario_trace(
        load_scenario(str(DATA / "scenarios" / "sampled_mu_alpha_lookahead.json"))
    )


GOLDEN = {
    "sampled_mu_alpha.csv": sampled_mu_alpha,
    "sampled_mu_star_epsilon.csv": sampled_mu_star_epsilon,
    "lookahead_n16.csv": lookahead_n16,
    "mu_all.csv": mu_all,
    "mu_alpha_expected.csv": mu_alpha_expected,
    "mu_all_lookahead.csv": mu_all_lookahead,
    "mu_alpha_lookahead.csv": mu_alpha_lookahead,
    "lookahead_table_value.csv": lookahead_table_value,
    "sampled_mu_alpha_lookahead.csv": sampled_mu_alpha_lookahead,
}


def csv_text(trace) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(trace_rows(trace))
    return buf.getvalue()


@pytest.mark.parametrize("filename", sorted(GOLDEN))
def test_trace_matches_golden_csv(filename):
    want = (DATA / filename).read_bytes().decode()
    assert csv_text(GOLDEN[filename]()) == want


def test_the_table_valued_trace_grows_its_value_scale_mid_run():
    """The instance's token-value table (scale, then v(d) times the scale) grows in round 15.

    Round 1 reaches levels 1-3 (values 1, 5/2, 11/3: scale 6); round 15
    first reaches level 4 (24/5), whose denominator grows the scale to 30.
    """
    scenario = table_value_scenario()
    runner = Runner(scenario.instance, scenario.policy, behavior=scenario.behavior,
                    mode=scenario.mode, horizon_cap=scenario.horizon_cap)
    tables = []
    for _ in range(scenario.rounds):
        runner.step()
        tables.append(list(scenario.instance._values))
    assert tables[:14] == [[6, 6, 15, 22]] * 14
    assert tables[14:] == [[30, 30, 75, 110, 144]] * (scenario.rounds - 14)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for filename, make in GOLDEN.items():
        (DATA / filename).write_bytes(csv_text(make()).encode())
        print(f"wrote {DATA / filename}")
