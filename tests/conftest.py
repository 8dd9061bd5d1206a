from fractions import Fraction

import pytest

from stakegame import IdentityValue, Instance, Player

# one line per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def three_player_instance():
    """Types 3 > 2 > 1, unit stakes, unit budget, identity value, tau = 1/2."""
    players = [
        Player(id=1, type_=Fraction(3)),
        Player(id=2, type_=Fraction(2)),
        Player(id=3, type_=Fraction(1)),
    ]
    return Instance.build(
        players=players,
        initial_stakes={1: 1, 2: 1, 3: 1},
        budget=1,
        tau_threshold=Fraction(1, 2),
        value_function=IdentityValue(),
    )


def make_instance(types, stakes, budget=1, tau=Fraction(1, 2), vf=None, costs=None):
    players = [
        Player(
            id=i + 1,
            type_=Fraction(t),
            cost=Fraction(costs[i]) if costs else Fraction(0),
        )
        for i, t in enumerate(types)
    ]
    return Instance.build(
        players=players,
        initial_stakes={i + 1: s for i, s in enumerate(stakes)},
        budget=budget,
        tau_threshold=tau,
        value_function=vf if vf is not None else IdentityValue(),
    )


def _builtin(name, policy, behavior, rounds):
    """A builtin's full declaration: the shared three-player instance plus its run."""
    return {
        "name": name,
        "players": [
            {"id": 1, "type": "3", "stake": "1", "cost": "0"},
            {"id": 2, "type": "2", "stake": "1", "cost": "0"},
            {"id": 3, "type": "1", "stake": "1", "cost": "0"},
        ],
        "policy": policy,
        "behavior": behavior,
        "tau_threshold": "1/2",
        "value_function": {"kind": "identity"},
        "budget": "1",
        "rounds": rounds,
        "mode": "expected",
        "horizon_cap": 50,
    }


# Each builtin scenario written out as a scenario file would spell it.
BUILTIN_DECLARATIONS = {
    "example1-myopic": _builtin("example1-myopic", {"kind": "mu_star"}, "myopic", 5),
    "example2-lookahead": _builtin("example2-lookahead", {"kind": "mu_star"}, "lookahead", 10),
    "example3-muell": _builtin("example3-muell", {"kind": "mu_ell"}, "myopic", 10),
}
