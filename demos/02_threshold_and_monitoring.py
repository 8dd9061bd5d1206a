"""Compute the token-value floor and audit a long run for recovery health.

The threshold theta is the lowest token value observed at any round where
some player would be harmed by participating.  Over a long forward-looking
run the decentralization index dips periodically; this script checks that
the value never falls below theta at those dips and that the index never
drops while excluded players are still buying their way back in.
"""

from collections import Counter
from fractions import Fraction

from stakegame import (
    IdentityValue,
    Instance,
    MuStar,
    Player,
    monitor_properties,
    run,
    threshold,
)

ROUNDS = 1000


def main():
    players = [
        Player(id=1, type_=Fraction(3)),
        Player(id=2, type_=Fraction(2)),
        Player(id=3, type_=Fraction(1)),
    ]
    inst = Instance.build(
        players=players,
        initial_stakes={1: 1, 2: 1, 3: 1},
        budget=1,
        tau_threshold=Fraction(1, 2),
        value_function=IdentityValue(),
    )

    th = threshold(run(inst, MuStar(), behavior="lookahead", rounds=50))
    print(f"value floor theta = {th.theta}")
    for pid in inst.ids:
        print(f"  player {pid}: worst harmful-round value = {th.of(pid)}")

    trace = run(inst, MuStar(), behavior="lookahead", rounds=ROUNDS)
    d_counts = Counter(rec.d for rec in trace.records)
    print(f"\n{ROUNDS} forward-looking rounds, index distribution: {dict(d_counts)}")

    below = [rec.round for rec in trace.records if rec.v < th.theta]
    print(f"rounds with value below theta: {len(below)}")

    report = monitor_properties(trace)
    print(f"exclusion rounds: {report.exclusion_rounds}")
    print(f"recovery violations: {len(report.recovery_violations)}")
    print(f"budget conservation violations: {len(report.conservation_violations)}")
    print("all monitors clean" if report.ok else "MONITOR FAILURE")


if __name__ == "__main__":
    main()
