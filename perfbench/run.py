"""stakegame benchmark: one seeded, single-threaded, closed-loop workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lookahead_n16 --seed 1 --seconds 20 --trace 0

Each op starts when the previous one returns.  The package is imported from
``src/`` of the same checkout; without it the benchmark exits with code 2
and prints no result.

``--trace 0`` measures the end-to-end metrics: whole batches of ops run until
``--seconds`` have passed, then the gate checks every timed output.
``--trace 1`` runs a fixed number of batches twice, untraced and then under
the outside-in tracer, and reports per-layer spans and counters; the fixed
length makes the counters repeat exactly for a given seed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
op passed the gate and, for the default seed, every pinned digest matched.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 15
# Time of reference_work() at the reference host speed.  Reported times are
# scaled by REFERENCE_S / (mean time of reference_work() near them), because
# the shared host's speed drifts by tens of percent within a minute, and by
# up to 3x under heavy load, far more than the ratio of package time to
# nearby reference time moves.
# Throughput uses the mean over the whole run; each op latency and each
# set-up uses the reference timings taken next to it.
REFERENCE_S = 0.001
MODULES = ("core", "measures", "policies", "equilibrium", "engine", "sybil",
           "virtualstake", "scenarios", "cli")


def load_package() -> SimpleNamespace:
    """Import stakegame from this checkout's src/, afresh.

    Earlier imports are dropped first so that each set-up repetition pays
    the import, as a new process would.
    """
    for name in [m for m in sys.modules if m == "stakegame" or m.startswith("stakegame.")]:
        del sys.modules[name]
    modules = {m: importlib.import_module(f"stakegame.{m}") for m in MODULES}
    origin = Path(modules["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"stakegame was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def setup(workload: str, seed: int, workdir: Path):
    """Import the package, generate the seeded inputs and build the workload."""
    shutil.rmtree(workdir, ignore_errors=True)
    pkg = load_package()
    from workloads import WORKLOADS

    return WORKLOADS[workload](pkg, seed, str(workdir))


def reference_work() -> int:
    """Fixed exact-rational work that touches no package code.

    It is shaped like the package's hot path (rank a small profile of
    small-denominator stakes, scan prefix sums of every suffix against half
    their total), so that a loaded host slows it about as much as the ops.
    """
    stakes = {pid: Fraction(pid % 7 + 1, pid % 3 + 1) for pid in range(1, 17)}
    found = 0
    for _ in range(3):
        ranking = sorted(stakes, key=lambda pid: (-stakes[pid], pid))
        for start in range(len(ranking)):
            suffix = [stakes[pid] for pid in ranking[start:]]
            half = sum(suffix) / 2
            running = Fraction(0)
            for k, stake in enumerate(suffix, 1):
                running += stake
                if running > half:
                    found += k
                    break
        stakes[ranking[-1]] += Fraction(1, 2)
    return found


def timed_reference() -> float:
    t = perf_counter()
    reference_work()
    return perf_counter() - t


def speed_scale(references: List[float]) -> float:
    """Factor that turns times measured now into times at the reference speed."""
    return REFERENCE_S / statistics.fmean(references)


def scaled(times: List[float], references: List[float], reach: int) -> List[float]:
    """Each time at the reference speed, judged by the reference timings nearest it.

    ``references[i]`` was taken right after ``times[i]``; the window holds the
    ``reach`` timings before item ``i`` and the ``reach`` from it on.
    """
    return [t * speed_scale(references[max(0, i - reach):i + reach])
            for i, t in enumerate(times)]


def run_batches(wl, batches: Optional[int], seconds: float):
    """Closed loop over whole batches: a fixed count, or until ``seconds`` pass.

    The reference work runs after every op, outside the op's timing, so that
    the host's speed is sampled across the whole loop.  Returns the op
    latencies, the results, the loop's wall time without the reference work,
    and the reference timings.
    """
    latencies: List[float] = []
    references: List[float] = []
    results: List[Tuple[str, object, Optional[str]]] = []
    start = perf_counter()
    b = 0
    while (b < batches) if batches is not None else (
            b < wl.min_batches or perf_counter() - start < seconds):
        for key, op in wl.batch(b):
            t = perf_counter()
            try:
                output, error = op(), None
            except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
                output, error = None, f"{key}: {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            latencies.append(perf_counter() - t)
            results.append((key, output, error))
            references.append(timed_reference())
        b += 1
    wall = perf_counter() - start - sum(references)
    return latencies, results, wall, references


def pinned(wl) -> Dict[str, str]:
    with open(DIGESTS) as fh:
        return json.load(fh)[wl.name]


def digest_errors(wl, results, seed: Optional[int]) -> List[str]:
    """Pinned-digest mismatches; the digests cover the default seed only."""
    if seed != DEFAULT_SEED:
        return []
    got = wl.digests(results)
    return [f"{key}: digest {got.get(key)} != pinned {want}"
            for key, want in pinned(wl).items() if got.get(key) != want]


def gate(wl, results, seed: Optional[int]) -> Tuple[int, List[str]]:
    """Failed-op count and every problem found in the timed outputs."""
    verdicts = wl.check(results)
    problems = [v for v in verdicts if v is not None]
    failed = len(problems)
    problems += digest_errors(wl, results, seed)
    return failed, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(args, workdir: Path) -> Tuple[dict, List[str]]:
    setups, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        wl = setup(args.workload, args.seed, workdir)
        setups.append(perf_counter() - t)
        setup_refs.append(statistics.fmean(timed_reference() for _ in range(3)))
    latencies, results, wall, references = run_batches(wl, None, args.seconds)
    rss = peak_rss_mb()
    failed, problems = gate(wl, results, args.seed)
    ops = len(results)
    scale = speed_scale(references)
    ms = sorted(x * 1000 for x in scaled(latencies, references, 3))
    p90 = statistics.quantiles(ms, n=10)[8]
    raw_ms = sorted(x * 1000 for x in latencies)
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / wall,
        "op_ms_p50": statistics.median(raw_ms),
        "op_ms_p90": statistics.quantiles(raw_ms, n=10)[8],
    }
    metrics = {
        "setup_s": (statistics.median(scaled(setups, setup_refs, 1)), "s"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"{wl.name} seed {args.seed}: {ops} ops in {wall:.2f} s, "
          f"{sum(1 for x in ms if x > p90)} ops above p90, error_rate {failed / ops:.4f} "
          f"({failed} failed); reference work took {1 / scale:.3f} x REFERENCE_S")
    for name, (value, unit) in metrics.items():
        measured = f" (as measured: {raw[name]:.6g})" if name in raw else ""
        print(f"  {name} = {value:.6g} {unit}{measured}")
    return {"attempted": ops, "failed": failed, "metrics": metrics}, problems


def solve_errors(wl, results, tracer) -> List[str]:
    """LookaheadSolver.solve may run only inside the ops the workload expects it in."""
    roots, calls = tracer.calls_by_root("equilibrium.LookaheadSolver.solve")
    if roots != len(results):
        return [f"{roots} top-level spans for {len(results)} ops"]
    return [f"{results[op][0]}: LookaheadSolver.solve called {count} times"
            for op, count in sorted(calls.items()) if not wl.solves(results[op][0])]


def traced_run(args, workdir: Path) -> Tuple[dict, List[str]]:
    from tracer import Tracer, layer_metric_names

    plain = setup(args.workload, args.seed, workdir / "untraced")
    batches = plain.traced_batches
    _, plain_results, plain_wall, plain_refs = run_batches(plain, batches, 0)
    traced = setup(args.workload, args.seed, workdir / "traced")
    tracer = Tracer()
    with tracer:
        _, results, wall, refs = run_batches(traced, batches, 0)
    failed, problems = gate(traced, results, args.seed)
    plain_failed, plain_problems = gate(plain, plain_results, args.seed)
    problems += plain_problems
    if plain.digests(plain_results) != traced.digests(results):
        problems.append("traced outputs differ from untraced outputs")
    problems += solve_errors(traced, results, tracer)
    layer = tracer.metrics()
    tracer.write_spans(str(workdir / f"spans-seed{args.seed}.csv.gz"))
    ops = len(results)
    # Each phase's throughput is taken at the reference speed, so that a
    # change in host speed between the phases does not read as overhead.
    overhead = (plain_wall * speed_scale(plain_refs)) / (wall * speed_scale(refs))
    metrics = {name: layer[name] for name, _ in layer_metric_names()}
    metrics["tracing.overhead_ratio"] = (overhead, "ratio")
    metrics["tracing.ops"] = (ops, "count")
    print(f"{traced.name} seed {args.seed}: {ops} traced ops, {tracer.spans} spans, "
          f"traced/untraced ops_per_s = {overhead:.3f}")
    return {"attempted": ops + len(plain_results), "failed": failed + plain_failed,
            "metrics": metrics}, problems


def pin(workdir: Path) -> None:
    """Rewrite digests.json from the default seed's pinned batches."""
    from workloads import WORKLOADS

    out = {}
    for name in WORKLOADS:
        wl = setup(name, DEFAULT_SEED, workdir / name)
        results = run_batches(wl, wl.pinned_batches, 0)[1]
        failed, problems = gate(wl, results, None)
        if failed or problems:
            raise SystemExit(f"{name}: refusing to pin failing outputs: {problems[:3]}")
        out[name] = wl.digests(results)
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json for the default seed and exit")
    args = parser.parse_args(argv)
    if not (SRC / "stakegame" / "__init__.py").is_file():
        print(f"perfbench: no stakegame package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work"
    if args.pin:
        pin(workdir / "pin")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workdir = workdir / args.workload
    run = traced_run if args.trace else timed_run
    result, problems = run(args, workdir)
    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
