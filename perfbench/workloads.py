"""The three seeded workloads of the stakegame benchmark.

Each workload turns ``--seed`` into inputs with its own generator; the
package only ever sees the generated inputs.  Work is cut into batches of
operations (one op is what a researcher's script waits on: one round, one
CLI run, one verification call) and a run always measures whole batches, so
every run sees the same mix of op kinds.  After the timed phase the gate
checks every output that was timed.

* ``lookahead_n16``: op = one ``Runner.step``; a batch is one fresh
  16-player trajectory of ``ROUNDS`` lookahead rounds.
* ``scenario_sweep``: op = one ``stakegame run`` (``cli.main``) on a scenario
  file written at set-up; a batch is one pass over all scenario files.
* ``diagnostics``: op = one verification call; a batch is a shuffled block
  with fixed proportions of the six kinds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Op = Tuple[str, Callable[[], object]]
# (job key, output, error message or None) of one timed op.
Result = Tuple[str, object, Optional[str]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_text(rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def read_csv(path: str) -> List[List[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def suffix_error(stakes: Dict[int, Fraction], participants: Sequence[int]) -> Optional[str]:
    """None when the participants are a non-empty suffix of the stake ranking."""
    ranking = sorted(stakes, key=lambda pid: (-stakes[pid], pid))
    k = len(ranking) - len(participants)
    if not participants or set(ranking[k:]) != set(participants):
        return f"participants {sorted(participants)} are not a suffix of ranking {ranking}"
    return None


def rows_error(rows: List[List[str]], budget: Fraction) -> Optional[str]:
    """Check trace CSV rows: ranking suffixes, conservation and stake continuity."""
    header = rows[0]
    ids = [int(h[len("stake_"):]) for h in header if h.startswith("stake_")]
    n = len(ids)
    prev_after = None
    for row in rows[1:]:
        stakes = {pid: Fraction(v) for pid, v in zip(ids, row[1:1 + n])}
        rewards = {pid: Fraction(v) for pid, v in zip(ids, row[5 + n:])}
        participants = [int(p) for p in row[1 + n].split(",") if p]
        problem = suffix_error(stakes, participants)
        if problem:
            return f"round {row[0]}: {problem}"
        paid = sum(rewards.values())
        if paid not in (0, budget):
            return f"round {row[0]}: paid {paid}, budget {budget}"
        if prev_after is not None and prev_after != stakes:
            return f"round {row[0]}: stakes do not continue the previous round"
        prev_after = {pid: stakes[pid] + rewards[pid] for pid in ids}
    return None


def checked(key: str, error_of: Callable[[str, object], Optional[str]], output) -> Optional[str]:
    """``error_of(key, output)``, with an output too malformed to check as a failure."""
    try:
        return error_of(key, output)
    except (KeyError, TypeError, ValueError) as exc:
        return f"{key}: malformed output: {exc!r}"


class Workload:
    """Seeded inputs, op batches, and the correctness gate of one workload."""

    name = ""
    # Every timed run measures at least this many batches (at least 100 ops).
    min_batches = 1
    # The traced run measures exactly this many batches, so counters repeat.
    traced_batches = 1
    # Digests of the default seed cover the jobs of these first batches.
    pinned_batches = 1

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def rng(self, *parts: object) -> random.Random:
        return random.Random("/".join(str(p) for p in (self.name, self.seed) + parts))

    def batch(self, b: int) -> List[Op]:
        raise NotImplementedError

    def check(self, results: List[Result]) -> List[Optional[str]]:
        """One entry per result: None if the output passed the gate."""
        raise NotImplementedError

    def digests(self, results: List[Result]) -> Dict[str, str]:
        """sha256 of each job's output, keyed by job."""
        raise NotImplementedError

    def solves(self, key: str) -> bool:
        """Whether the op may call LookaheadSolver.solve (checked in the traced run)."""
        return False

    def cli(self, argv: List[str]) -> Tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        return code, buf.getvalue()


class LookaheadN16(Workload):
    """Planning players on 16-player instances; most time goes to recovery walks."""

    name = "lookahead_n16"
    PLAYERS = 16
    # Short trajectories keep p90 inside the common kind of round: from
    # round 7 on, rounds with extra recovery work appear in about one in ten
    # ops, which would put p90 on the boundary between the two kinds.
    ROUNDS = 6
    min_batches = 17
    traced_batches = 16
    pinned_batches = 8

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self._runners: Dict[str, object] = {}
        self._runners[self.key(0)] = self._runner(0)

    @staticmethod
    def key(b: int) -> str:
        return f"trajectory-{b}"

    def solves(self, key):
        return True

    def _runner(self, b: int):
        pkg = self.pkg
        rng = self.rng(b)
        players = [pkg.core.Player(id=i, type_=Fraction(rng.randint(1, 32)))
                   for i in range(1, self.PLAYERS + 1)]
        stakes = {p.id: rng.randint(1, 4) for p in players}
        instance = pkg.core.Instance.build(
            players, stakes, budget=1, tau_threshold=Fraction(1, 2),
            value_function=pkg.core.IdentityValue(),
        )
        return pkg.engine.Runner(instance, pkg.policies.MuStar(), behavior="lookahead")

    def batch(self, b):
        key = self.key(b)
        runner = self._runners.get(key) or self._runner(b)
        self._runners[key] = runner
        return [(key, lambda: runner.step())] * self.ROUNDS

    def check(self, results):
        keys = dict.fromkeys(key for key, _, _ in results)
        problems = {key: self._trace_error(key, self._runners[key].trace) for key in keys}
        return [error or problems[key] for key, _, error in results]

    def _trace_error(self, key: str, trace) -> Optional[str]:
        """Conservation, ranking suffixes, continuity and an exact CSV round trip."""
        engine = self.pkg.engine
        report = engine.monitor_properties(trace)
        if report.conservation_violations:
            return f"{key}: budget not conserved in rounds {report.conservation_violations}"
        rows = engine.trace_rows(trace)
        path = os.path.join(self.workdir, f"{key}.csv")
        engine.write_trace(trace, path)
        if read_csv(path) != rows:
            return f"{key}: trace CSV does not round-trip"
        return rows_error(rows, trace.instance.budget)

    def digests(self, results):
        keys = dict.fromkeys(key for key, _, _ in results)
        return {key: sha256(rows_text(self.pkg.engine.trace_rows(self._runners[key].trace)))
                for key in keys}


class ScenarioSweep(Workload):
    """Many small myopic scenarios through the CLI: per-call overhead dominates."""

    name = "scenario_sweep"
    ROUNDS = 20
    # (policy kind, epsilon > 0, mode); --theta is passed on expected mode only.
    KINDS = (("mu_alpha", False, "sampled"), ("mu_star", True, "sampled"),
             ("mu_all", False, "expected"), ("mu_star", True, "expected"))
    SIZES = range(3, 9)
    # One pass holds one fresh scenario per (kind, size) pair.
    PER_PASS = len(KINDS) * len(SIZES)
    min_batches = 5
    traced_batches = 2
    pinned_batches = 2

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.specs: Dict[str, dict] = {}
        os.makedirs(os.path.join(workdir, "scenarios"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
        self._passes = {0: self._write_pass(0)}

    def scenario_path(self, key: str) -> str:
        return os.path.join(self.workdir, "scenarios", f"{key}.json")

    def _write_pass(self, b: int) -> List[str]:
        """Generate and write the scenario files of pass ``b``, in run order."""
        keys = []
        for i in range(self.PER_PASS):
            key = f"scenario-{b}-{i}"
            self.specs[key] = self._scenario(key, i)
            with open(self.scenario_path(key), "w") as fh:
                json.dump(self.specs[key], fh, indent=2)
            keys.append(key)
        self.rng("order", b).shuffle(keys)
        return keys

    def _scenario(self, key: str, i: int) -> dict:
        rng = self.rng(key)
        kind, with_epsilon, mode = self.KINDS[i % len(self.KINDS)]
        n = self.SIZES[i // len(self.KINDS)]
        policy: dict = {"kind": kind}
        if kind == "mu_alpha":
            policy["alpha"] = f"{rng.randint(1, 7)}/8"
        if with_epsilon:
            policy["epsilon"] = f"{rng.randint(1, 4)}/20"
        spec = {
            "name": key,
            "players": [{"id": pid, "type": str(rng.randint(1, 9)),
                         "stake": str(rng.randint(1, 6))} for pid in range(1, n + 1)],
            "policy": policy,
            "tau_threshold": "1/2",
            "budget": "1",
            "rounds": self.ROUNDS,
            "behavior": "myopic",
            "mode": mode,
        }
        if mode == "sampled":
            spec["seed"] = rng.randrange(1 << 30)
        return spec

    def batch(self, b):
        keys = self._passes.pop(b, None) or self._write_pass(b)
        ops = []
        for key in keys:
            argv = ["run", self.scenario_path(key),
                    "-o", os.path.join(self.workdir, "out", f"{key}.csv")]
            if self.specs[key]["mode"] == "expected":
                argv.append("--theta")
            ops.append((key, lambda argv=argv: (argv[3],) + self.cli(argv)))
        return ops

    @staticmethod
    def _output(output) -> str:
        csv_path, _, stdout = output
        with open(csv_path) as fh:
            return fh.read() + "\n--\n" + stdout

    def check(self, results):
        return [error or checked(key, self._error, output) for key, output, error in results]

    def _error(self, key: str, output) -> Optional[str]:
        """Compare the CLI's CSV and JSON with the API trajectory of the same scenario."""
        csv_path, code, stdout = output
        if code != 0:
            return f"{key}: exit code {code}"
        pkg = self.pkg
        scenario = pkg.scenarios.parse_scenario(self.specs[key])
        trace = pkg.engine.run(scenario.instance, scenario.policy, behavior=scenario.behavior,
                               rounds=scenario.rounds, mode=scenario.mode, seed=scenario.seed)
        rows = read_csv(csv_path)
        if rows != pkg.engine.trace_rows(trace):
            return f"{key}: CSV differs from the API trajectory"
        if pkg.engine.monitor_properties(trace).conservation_violations:
            return f"{key}: budget not conserved"
        problem = rows_error(rows, scenario.instance.budget)
        if problem:
            return f"{key}: {problem}"
        report = json.loads(stdout)
        final = {str(pid): str(s) for pid, s in sorted(trace.final_stakes().items())}
        if (report["rounds"] != scenario.rounds or report["final_stakes"] != final
                or report["min_d"] != min(r.d for r in trace.records)
                or report["max_d"] != max(r.d for r in trace.records)):
            return f"{key}: JSON summary disagrees with the trajectory"
        if scenario.mode == "expected":
            theta = report["theta"]
            below = [] if theta is None else [
                r.round for r in trace.records if r.v < Fraction(theta)]
            if report["rounds_below_theta"] != below:
                return f"{key}: rounds_below_theta disagrees with theta {theta}"
        elif "theta" in report:
            return f"{key}: theta reported on a sampled scenario"
        return None

    def digests(self, results):
        return {key: sha256(self._output(output))
                for key, output, error in results if error is None}


class Diagnostics(Workload):
    """The verification suites and the virtual-stake sampler."""

    name = "diagnostics"
    # Per block: the fixed proportions of the op kinds.  Sizes are chosen so
    # that, by cost, sybil > oracle and sampled > paper_tables > invariance
    # and axioms.  p90 then falls inside the sybil ops and p50 inside the
    # paper_tables ops, both of fixed input, rather than on a boundary
    # between kinds, where it would jump from run to run.
    MIX = (("sybil", 3), ("oracle", 3), ("sampled", 2), ("paper_tables", 4),
           ("invariance", 4), ("axioms", 4))
    SAMPLED_ROUNDS = 800
    min_batches = 5
    traced_batches = 2
    pinned_batches = 1

    def solves(self, key):
        # The golden traces include a lookahead run and the simulating policy,
        # whose shadow trajectory plans with LookaheadSolver.
        return key.endswith("paper_tables")

    def jobs(self, b: int) -> List[Tuple[str, tuple]]:
        """Block ``b``: (key, CLI argv or sampler arguments) per op."""
        rng = self.rng("block", b)
        kinds = [kind for kind, count in self.MIX for _ in range(count)]
        rng.shuffle(kinds)
        return [(f"block-{b}-{j}-{kind}", self._spec(kind, rng)) for j, kind in enumerate(kinds)]

    def batch(self, b):
        return [(key, self._op(spec)) for key, spec in self.jobs(b)]

    def _spec(self, kind: str, rng: random.Random) -> tuple:
        if kind == "sampled":
            n = 3
            alpha = Fraction(rng.randint(0, 7), 8)
            types = {pid: rng.randint(1, 9) for pid in range(1, n + 1)}
            stakes = {pid: rng.randint(1, 9) for pid in range(1, n + 1)}
            return ("sampled", alpha, types, stakes, rng.randrange(1 << 30))
        if kind == "oracle":
            extra = ["--instances", "24", "--seed", str(rng.randrange(1 << 30))]
        elif kind == "invariance":
            extra = ["--triples", "3", "--steps", "20", "--seed", str(rng.randrange(1 << 30))]
        elif kind == "axioms":
            grid = sorted(rng.sample(range(1, 9), 4))
            extra = ["--n-max", "3", "--grid", ",".join(map(str, grid)),
                     "--tau", rng.choice(["1/3", "1/2", "2/3", "1/3,2/3"])]
        else:
            extra = []
        return ("verify", kind, *extra)

    def _op(self, spec: tuple) -> Callable[[], object]:
        if spec[0] == "sampled":
            _, alpha, types, stakes, seed = spec
            vs = self.pkg.virtualstake
            state = vs.VirtualStakeState.build(alpha, types, stakes)
            return lambda: vs.sampled_win_frequencies(state, self.SAMPLED_ROUNDS, seed)
        return lambda: self.cli(list(spec))

    def check(self, results):
        return [error or checked(key, self._error, output) for key, output, error in results]

    def _error(self, key: str, output) -> Optional[str]:
        kind = key.split("-")[-1]
        if kind == "sampled":
            if sum(output.values()) != 1:
                return f"{key}: frequencies sum to {sum(output.values())}"
            if any((f * self.SAMPLED_ROUNDS).denominator != 1 for f in output.values()):
                return f"{key}: a frequency is not a whole count over the rounds"
            return None
        code, stdout = output
        report = json.loads(stdout)
        if code != 0 or report.get("suite") != kind or report.get("ok") is not True:
            return f"{key}: exit {code}, report {stdout.strip()[:200]}"
        return None

    @staticmethod
    def _text(output) -> str:
        if isinstance(output, dict):
            return json.dumps({str(k): str(v) for k, v in sorted(output.items())})
        return output[1]

    def digests(self, results):
        return {key: sha256(self._text(output))
                for key, output, error in results if error is None}


WORKLOADS = {w.name: w for w in (LookaheadN16, ScenarioSweep, Diagnostics)}
