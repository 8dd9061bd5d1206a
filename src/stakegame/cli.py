"""Command line front end: run scenarios, verify properties, sweep parameters.

Exit codes: 0 all checks pass, 1 a check or property was violated, 2 usage
or scenario-parse error.  Reports go to standard output as JSON so they can
be consumed by scripts; human-oriented notes go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional

from .core import IdentityValue, Instance, Player
from .engine import run, trace_rows, write_trace
from .equilibrium import (
    LookaheadHorizonError,
    brute_force_equilibrium,
    myopic_equilibrium,
    threshold,
)
from .measures import check_decentralization_axioms, tau_index_measure
from .policies import MuAll, MuAlpha, MuEll, MuStar
from .scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    ScenarioError,
    _at_least_one,
    _number,
    _open_unit_interval,
    _unit_interval,
    builtin_scenario,
    load_scenario,
)
from .sybil import max_sybil_gain, sybil_proofness_condition
from .virtualstake import VirtualStakeState, check_invariance, incumbent_gap_state

GOLDEN_FILES = {
    "example1-myopic": "table_myopic.csv",
    "example2-lookahead": "table_lookahead.csv",
    "example3-muell": "table_simulating.csv",
}


def _load_golden(filename: str) -> List[List[str]]:
    ref = resources.files("stakegame").joinpath("data").joinpath(filename)
    with ref.open() as fh:
        return [row for row in csv.reader(fh)]


def _get_scenario(name_or_path: str) -> Scenario:
    if name_or_path in BUILTIN_SCENARIOS:
        return builtin_scenario(name_or_path)
    return load_scenario(name_or_path)


def _run_scenario(scenario: Scenario):
    return run(
        scenario.instance,
        scenario.policy,
        behavior=scenario.behavior,
        rounds=scenario.rounds,
        mode=scenario.mode,
        seed=scenario.seed,
        horizon_cap=scenario.horizon_cap,
    )


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _get_scenario(args.scenario)
    try:
        trace = _run_scenario(scenario)
    except LookaheadHorizonError as exc:
        print(
            f"solver failed: player {exc.player} has no recovery plan within "
            f"{exc.cap} rounds",
            file=sys.stderr,
        )
        return 1
    if args.output:
        write_trace(trace, args.output)
    summary: Dict[str, object] = {
        "scenario": scenario.name,
        "rounds": trace.rounds,
        "final_stakes": {
            str(pid): str(s) for pid, s in sorted(trace.final_stakes().items())
        },
        "min_d": min(rec.d for rec in trace.records),
        "max_d": max(rec.d for rec in trace.records),
    }
    if args.theta:
        th = threshold(trace)
        theta = th.theta
        summary["theta"] = None if theta is None else str(theta)
        summary["rounds_below_theta"] = [] if theta is None else [
            rec.round for rec in trace.records if rec.v < theta
        ]
    print(json.dumps(summary))
    return 0


def _verify_paper_tables() -> Dict[str, object]:
    mismatches = []
    for name, filename in GOLDEN_FILES.items():
        scenario = builtin_scenario(name)
        rows = trace_rows(_run_scenario(scenario))
        golden = _load_golden(filename)
        if rows != golden:
            for i, (got, want) in enumerate(zip(rows, golden)):
                if got != want:
                    mismatches.append({"trace": name, "row": i, "got": got, "want": want})
            if len(rows) != len(golden):
                mismatches.append(
                    {"trace": name, "rows": len(rows), "expected": len(golden)}
                )
    return {"suite": "paper_tables", "traces": len(GOLDEN_FILES), "mismatches": mismatches,
            "ok": not mismatches}


def _verify_axioms(args: argparse.Namespace) -> Dict[str, object]:
    grid = [_number(x, "verify axioms --grid") for x in args.grid.split(",")]
    taus = [_open_unit_interval(x, "verify axioms --tau") for x in args.tau.split(",")]
    violations = []
    checked = 0
    for tau in taus:
        try:
            report = check_decentralization_axioms(tau_index_measure(tau), args.n_max, grid)
        except ValueError as exc:  # the checker's own argument checks
            raise ScenarioError(f"verify axioms: {exc}") from None
        checked += report.checked
        violations.extend(f"tau={tau}: {v}" for v in report.violations)
    return {"suite": "axioms", "checked": checked, "violations": violations,
            "ok": not violations}


def _verify_invariance(args: argparse.Namespace) -> Dict[str, object]:
    triples = _at_least_one(args.triples, "verify invariance --triples")
    steps = _at_least_one(args.steps, "verify invariance --steps")
    rng = random.Random(args.seed)
    failures = []
    for trial in range(triples):
        n = rng.randint(2, 5)
        alpha = Fraction(rng.randint(0, 8), 8)
        types = {i + 1: Fraction(rng.randint(1, 9)) for i in range(n)}
        stakes = {i + 1: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for i in range(n)}
        state = VirtualStakeState.build(alpha, types, stakes)
        report = check_invariance(state, steps)
        if not report.ok:
            failures.append({"trial": trial, "alpha": str(alpha)})
    return {"suite": "invariance", "triples": triples, "steps": steps,
            "failures": failures, "ok": not failures}


def _sybil_fixture() -> Instance:
    # Three players with pairwise type gaps below 1, equal unit stakes.
    players = [
        Player(id=1, type_=Fraction(3)),
        Player(id=2, type_=Fraction(5, 2)),
        Player(id=3, type_=Fraction(2)),
    ]
    return Instance.build(
        players=players,
        initial_stakes={1: 1, 2: 1, 3: 1},
        budget=1,
        tau_threshold=Fraction(1, 2),
        value_function=IdentityValue(),
    )


def _verify_sybil(args: argparse.Namespace) -> Dict[str, object]:
    granularity = Fraction(1, 4)
    max_parts = 3
    instance = _sybil_fixture()
    problems: List[str] = []

    # the harmful (3,1,1) profile exercises the condition beyond vacuity
    profiles = [instance.stakes(), {1: Fraction(3), 2: Fraction(1), 3: Fraction(1)}]
    condition = sybil_proofness_condition(
        instance, MuEll(), granularity, max_parts, profiles=profiles
    )
    if not condition.satisfied:
        problems.append("proofness condition violated on the small-gap fixture")
    for pid in instance.ids:
        gain, split = max_sybil_gain(
            pid, instance.stakes(), instance, MuEll(), granularity, max_parts
        )
        if gain > 0:
            problems.append(
                f"player {pid} gains {gain} under the winner-take-all policy "
                f"via {[(str(s), str(t)) for s, t in split.parts]}"
            )

    allpay_gain, _ = max_sybil_gain(
        1, instance.stakes(), instance, MuAll(), granularity, max_parts
    )
    if allpay_gain <= 0:
        problems.append("expected a profitable split under the all-pay policy")

    return {"suite": "sybil", "allpay_best_gain": str(allpay_gain),
            "problems": problems, "ok": not problems}


def _verify_oracle(args: argparse.Namespace) -> Dict[str, object]:
    instances = _at_least_one(args.instances, "verify oracle --instances")
    rng = random.Random(args.seed)
    mismatches = []
    for trial in range(instances):
        n = rng.randint(2, 5)
        players = [Player(id=i + 1, type_=Fraction(rng.randint(1, 6))) for i in range(n)]
        # stakes >= 3 keep the value drop per index level above one round's
        # budget, the regime where the suffix equilibrium is unique
        stakes = {i + 1: Fraction(rng.randint(3, 6)) for i in range(n)}
        instance = Instance.build(
            players, stakes, budget=1, tau_threshold=Fraction(1, 2),
            value_function=IdentityValue(),
        )
        policy = MuStar() if rng.random() < 0.5 else MuAll()
        eq = myopic_equilibrium(stakes, instance, policy)
        oracle = brute_force_equilibrium(stakes, instance, policy)
        if len(oracle) != 1 or oracle[0] != eq:
            mismatches.append({
                "trial": trial,
                "stakes": {str(k): str(v) for k, v in stakes.items()},
                "solver": sorted(eq),
                "oracle": [sorted(s) for s in oracle],
            })
    return {"suite": "oracle", "instances": instances,
            "mismatches": mismatches, "ok": not mismatches}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "paper_tables":
        report = _verify_paper_tables()
    elif args.suite == "axioms":
        report = _verify_axioms(args)
    elif args.suite == "invariance":
        report = _verify_invariance(args)
    elif args.suite == "sybil":
        report = _verify_sybil(args)
    else:
        report = _verify_oracle(args)
    print(json.dumps(report))
    return 0 if report["ok"] else 1


# How each sweep parameter's values are read: with the scenario file's checks.
_SWEEP_VALUE = {
    "alpha": _unit_interval,
    "epsilon": _unit_interval,
    "rounds": _at_least_one,
    "M": _number,
}


def _sweep_values(parameter: str, raw: str) -> List[Fraction | int]:
    parse = _SWEEP_VALUE[parameter]
    values = [parse(v, f"sweep {parameter}") for v in raw.split(",") if v.strip()]
    if not values:
        raise ScenarioError("sweep: empty value list")
    return values


def _scenario_for_value(
    scenario: Scenario, parameter: str, value: Fraction | int
) -> Scenario:
    if parameter == "alpha":
        if not isinstance(scenario.policy, MuAlpha):
            raise ScenarioError("sweep alpha: scenario policy must be mu_alpha")
        return replace(scenario, policy=MuAlpha(alpha=value))
    if parameter == "epsilon":
        if not isinstance(scenario.policy, MuStar):
            raise ScenarioError("sweep epsilon: scenario policy must be mu_star")
        return replace(scenario, policy=MuStar(epsilon=value))
    if parameter == "rounds":
        return replace(scenario, rounds=value)
    if parameter == "M":
        if not isinstance(scenario.policy, MuAlpha):
            raise ScenarioError("sweep M: scenario policy must be mu_alpha")
        types = {p.id: p.type_ for p in scenario.instance.players}
        try:
            state = incumbent_gap_state(scenario.policy.alpha, types, value)
        except ValueError as exc:  # M <= 0, alpha = 1 or a single player
            raise ScenarioError(f"sweep M: {exc}") from None
        instance = Instance.build(
            players=scenario.instance.players,
            initial_stakes=state.stake_dict(),
            budget=scenario.instance.budget,
            tau_threshold=scenario.instance.tau_threshold,
            value_function=scenario.instance.value_function,
        )
        return replace(scenario, instance=instance)
    raise ScenarioError(f"sweep: unknown parameter {parameter!r}")


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _get_scenario(args.scenario)
    values = _sweep_values(args.parameter, args.values)
    # every value is checked before the first run writes anything
    variants = [_scenario_for_value(scenario, args.parameter, value) for value in values]
    os.makedirs(args.output_dir, exist_ok=True)
    summary_rows = []
    ids = sorted(scenario.instance.stakes())
    for value, variant in zip(values, variants):
        trace = _run_scenario(variant)
        tag = str(value).replace("/", "_")
        write_trace(trace, os.path.join(args.output_dir, f"trace_{args.parameter}_{tag}.csv"))
        final = trace.final_stakes()
        total = sum(final.values())
        summary_rows.append(
            [str(value)]
            + [str(final[pid] / total) for pid in ids]
            + [str(min(rec.d for rec in trace.records))]
        )
    summary_path = os.path.join(args.output_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.parameter] + [f"share_{pid}" for pid in ids] + ["min_d"])
        writer.writerows(summary_rows)
    print(json.dumps({"values": len(values), "summary": summary_path}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stakegame",
        description="simulate repeated staking games under algorithmic reward policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and export its trace")
    p_run.add_argument("scenario", help="scenario file or builtin name "
                       f"({', '.join(BUILTIN_SCENARIOS)})")
    p_run.add_argument("-o", "--output", help="trace CSV path")
    p_run.add_argument("--theta", action="store_true",
                       help="also compute the participation threshold")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=["paper_tables", "axioms", "invariance",
                                            "sybil", "oracle"])
    p_verify.add_argument("--n-max", type=int, default=4)
    p_verify.add_argument("--grid", default="1,2,3,4")
    p_verify.add_argument("--tau", default="1/3,1/2,2/3")
    # counts are read with the scenario file's checks, so a bad one exits 2
    p_verify.add_argument("--triples", default=100)
    p_verify.add_argument("--steps", default=100)
    p_verify.add_argument("--instances", default=200)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="rerun a scenario over parameter values")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--parameter", required=True,
                         choices=["alpha", "M", "rounds", "epsilon"])
    p_sweep.add_argument("--values", required=True, help="comma separated values")
    p_sweep.add_argument("--output-dir", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
