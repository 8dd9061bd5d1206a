"""Outside-in span tracer for the stakegame package.

The tracer changes no package source.  It rebinds each wrapped public
function in every ``stakegame`` module namespace that holds it (for example
``equilibrium`` imports ``tau_decentralization_index`` by name) and replaces
wrapped methods on their class.  Each call becomes a span: name, parent span,
start and end.  Spans stay in compact in-memory arrays and are aggregated,
and optionally written out, once the traced phase has ended.

A span's self time is its duration minus the time covered by its direct
child spans.  Work the tracer itself does (bookkeeping for the derived
counters) happens outside the span it belongs to and so counts towards the
parent's self time; the benchmark reports the traced / untraced throughput
ratio as the tracing overhead.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (module, qualified name) of every wrapped public callable, in layer order.
WRAPPED: Tuple[Tuple[str, str], ...] = (
    ("measures", "tau_decentralization_index"),
    ("policies", "winner_distribution"),
    ("policies", "expected_rewards"),
    ("policies", "expected_budget"),
    ("policies", "draw_winner"),
    ("equilibrium", "stage_value"),
    ("equilibrium", "stage_utility"),
    ("equilibrium", "is_harmful"),
    ("equilibrium", "recovery_winner_labels"),
    ("equilibrium", "myopic_equilibrium"),
    ("equilibrium", "threshold"),
    ("equilibrium", "brute_force_equilibrium"),
    ("equilibrium", "LookaheadSolver.solve"),
    ("engine", "Runner.step"),
    ("engine", "monitor_properties"),
    ("engine", "write_trace"),
    ("sybil", "enumerate_splits"),
    ("sybil", "sybil_gain"),
    ("virtualstake", "check_invariance"),
    ("virtualstake", "sampled_win_frequencies"),
    ("scenarios", "load_scenario"),
    ("cli", "main"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(f"{mod}.{qual}" for mod, qual in WRAPPED)

# Derived counters: name -> unit.
DERIVED: Dict[str, str] = {
    "measures.tau_decentralization_index.repeat_ratio": "ratio",
    "measures.tau_decentralization_index.mean_n": "players",
    "equilibrium.LookaheadSolver.solve.repeat_ratio": "ratio",
    "equilibrium.recovery_steps": "count",
    "engine.stake_den_bits_max": "bits",
}

INDEX = SPAN_NAMES.index("measures.tau_decentralization_index")
SOLVE = SPAN_NAMES.index("equilibrium.LookaheadSolver.solve")
MYOPIC = SPAN_NAMES.index("equilibrium.myopic_equilibrium")
STEP = SPAN_NAMES.index("engine.Runner.step")


def layer_metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names: List[Tuple[str, str]] = []
    for span in SPAN_NAMES:
        names += [(f"{span}.calls", "count"), (f"{span}.total_s", "s"), (f"{span}.self_s", "s")]
    names += list(DERIVED.items())
    return names


class Tracer:
    """Records one span per call of every wrapped callable while installed."""

    def __init__(self) -> None:
        self._name = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._index_inputs: set = set()
        self._index_repeats = 0
        self._index_players = 0
        self._solve_inputs: set = set()
        self._solve_repeats = 0
        self._solve_depth = 0
        self._recovery_steps = 0
        self._den_bits_max = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped callable in the loaded stakegame modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "stakegame" or name.startswith("stakegame."))
        }
        for idx, (mod_name, qual) in enumerate(WRAPPED):
            owner = modules[f"stakegame.{mod_name}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._rebind(cls, attr, self._wrap(idx, original))
                continue
            original = getattr(owner, qual)
            wrapper = self._wrap(idx, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound name; the package is then as before install."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx: int, fn: Callable) -> Callable:
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )
        before = {INDEX: self._before_index, SOLVE: self._before_solve,
                  MYOPIC: self._before_myopic}.get(idx)
        after = self._after_solve if idx == SOLVE else None

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
                if after is not None:
                    after()
            if idx == STEP:
                self._note_step(result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- derived counters ---------------------------------------------------

    def _before_index(self, args: tuple) -> tuple:
        stakes = list(args[0])
        key = (tuple(sorted(stakes)), args[1] if len(args) > 1 else None)
        if key in self._index_inputs:
            self._index_repeats += 1
        else:
            self._index_inputs.add(key)
        self._index_players += len(stakes)
        return (stakes,) + tuple(args[1:])

    def _before_solve(self, args: tuple) -> tuple:
        solver, stakes = args[0], args[1]
        key = (solver.instance, solver.policy, tuple(sorted(stakes.items())))
        if key in self._solve_inputs:
            self._solve_repeats += 1
        else:
            self._solve_inputs.add(key)
        self._solve_depth += 1
        return args

    def _after_solve(self) -> None:
        self._solve_depth -= 1

    def _before_myopic(self, args: tuple) -> tuple:
        if self._solve_depth:
            self._recovery_steps += 1
        return args

    def _note_step(self, record) -> None:
        bits = max(stake.denominator.bit_length() for _, stake in record.stakes_after)
        if bits > self._den_bits_max:
            self._den_bits_max = bits

    # -- results ------------------------------------------------------------

    @property
    def spans(self) -> int:
        return len(self._start)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-span calls, total and self time, plus the derived counters."""
        count = len(self._start)
        child = [0.0] * count
        starts, ends, parents = self._start, self._end, self._parent
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(SPAN_NAMES)
        total = [0.0] * len(SPAN_NAMES)
        self_time = [0.0] * len(SPAN_NAMES)
        for i in range(count):
            idx = self._name[i]
            duration = ends[i] - starts[i]
            calls[idx] += 1
            total[idx] += duration
            self_time[idx] += duration - child[i]
        out: Dict[str, Tuple[float, str]] = {}
        for idx, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = (calls[idx], "count")
            out[f"{span}.total_s"] = (total[idx], "s")
            out[f"{span}.self_s"] = (self_time[idx], "s")
        index_calls = calls[INDEX] or 1
        derived = {
            "measures.tau_decentralization_index.repeat_ratio": self._index_repeats / index_calls,
            "measures.tau_decentralization_index.mean_n": self._index_players / index_calls,
            "equilibrium.LookaheadSolver.solve.repeat_ratio":
                self._solve_repeats / (calls[SOLVE] or 1),
            "equilibrium.recovery_steps": self._recovery_steps,
            "engine.stake_den_bits_max": self._den_bits_max,
        }
        out.update((name, (value, DERIVED[name])) for name, value in derived.items())
        return out

    def calls_by_root(self, span_name: str) -> Tuple[int, Dict[int, int]]:
        """Number of root spans, and calls of ``span_name`` under each root (by ordinal)."""
        target = SPAN_NAMES.index(span_name)
        parents = self._parent
        ordinal: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for i in range(len(parents)):
            if parents[i] < 0:
                ordinal[i] = len(ordinal)
            if self._name[i] == target:
                root = i
                while parents[root] >= 0:
                    root = parents[root]
                counts[ordinal[root]] = counts.get(ordinal[root], 0) + 1
        return len(ordinal), counts

    def write_spans(self, path: str) -> None:
        """Write every span as gzip CSV: id, parent, name, start and end.

        Times are microseconds from the first span's start.
        """
        base = self._start[0] if len(self._start) else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("span,parent,name,start_us,end_us\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{i},{self._parent[i]},{SPAN_NAMES[self._name[i]]},"
                    f"{(self._start[i] - base) * 1e6:.1f},{(self._end[i] - base) * 1e6:.1f}\n"
                )
