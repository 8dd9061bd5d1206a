"""Self-tests of the benchmark: generators, digests and the tracer.

Run from the root of the repository with ``python -m pytest perfbench``.
The repository's own test suite (``tests/``) does not collect this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def build(tmp_path):
    def make(name, seed=run.DEFAULT_SEED, tag="a"):
        return run.setup(name, seed, tmp_path / f"{name}-{seed}-{tag}")
    return make


def inputs(wl):
    """Everything the package receives from a workload's first two batches."""
    if wl.name == "lookahead_n16":
        wl.batch(1)
        return [repr((r.instance, r.policy, r.behavior, r.mode, r.horizon_cap))
                for r in wl._runners.values()]
    if wl.name == "scenario_sweep":
        order = [key for b in (0, 1) for key, _ in wl.batch(b)]
        return order, [Path(wl.scenario_path(key)).read_text() for key in order]
    return wl.jobs(0) + wl.jobs(1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(build, name):
    assert inputs(build(name, 5, "a")) == inputs(build(name, 5, "b"))
    assert inputs(build(name, 5)) != inputs(build(name, 6))


def test_batches_have_fixed_shapes(build):
    sweep = build("scenario_sweep")
    for b in (0, 1):
        specs = [sweep.specs[key] for key, _ in sweep.batch(b)]
        kinds = {(s["policy"]["kind"], s["mode"], len(s["players"])) for s in specs}
        assert len(kinds) == len(specs) == 24
    diag = build("diagnostics")
    for b in (0, 3):
        keys = [key.split("-")[-1] for key, _ in diag.batch(b)]
        assert sorted(keys) == sorted(k for k, c in diag.MIX for _ in range(c))
    for name, cls in WORKLOADS.items():
        wl = build(name)
        assert cls.min_batches * len(wl.batch(0)) >= 100, name


def pinned_subset(wl, batches):
    results = run.run_batches(wl, batches, 0)[1]
    failed, problems = run.gate(wl, results, None)
    assert failed == 0 and problems == []
    got = wl.digests(results)
    want = run.pinned(wl)
    return {k: got[k] for k in got if k in want}, {k: want[k] for k in got if k in want}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_pinned_digests(build, name):
    got, want = pinned_subset(build(name), 1)
    assert got and got == want
    again, _ = pinned_subset(build(name, tag="b"), 1)
    assert again == got


def test_gate_catches_a_changed_output(build):
    wl = build("diagnostics")
    results = run.run_batches(wl, 1, 0)[1]
    key, output, _ = next(r for r in results if r[0].endswith("oracle"))
    broken = (key, (0, json.dumps({"suite": "oracle", "ok": False})), None)
    assert wl.check([broken]) != [None]
    assert run.digest_errors(wl, [broken], run.DEFAULT_SEED)


def namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name.startswith("stakegame")}


@pytest.mark.parametrize("name", ["scenario_sweep", "diagnostics"])
def test_tracer_is_a_no_op_on_outputs(build, name):
    plain = build(name, tag="plain")
    plain_results = run.run_batches(plain, 1, 0)[1]
    traced = build(name, tag="traced")
    before = namespaces()
    tracer = Tracer()
    with tracer:
        assert namespaces() != before
        results = run.run_batches(traced, 1, 0)[1]
    assert namespaces() == before
    assert traced.digests(results) == plain.digests(plain_results)
    assert tracer.metrics()["cli.main.calls"][0] == sum(
        1 for key, _, _ in results if not key.endswith("sampled"))
    assert run.solve_errors(traced, results, tracer) == []
    traced.solves = lambda key: False
    assert bool(run.solve_errors(traced, results, tracer)) == (name == "diagnostics")


def test_self_times_partition_the_top_level_spans(build):
    wl = build("scenario_sweep")
    with Tracer() as tracer:
        run.run_batches(wl, 1, 0)
    metrics = tracer.metrics()
    self_total = sum(metrics[f"{s}.self_s"][0] for s in SPAN_NAMES)
    assert self_total == pytest.approx(metrics["cli.main.total_s"][0], rel=1e-9)
    assert all(metrics[f"{s}.self_s"][0] >= 0 for s in SPAN_NAMES)


def test_tracer_rebinds_names_imported_elsewhere(build):
    build("diagnostics")
    equilibrium = sys.modules["stakegame.equilibrium"]
    original = equilibrium.tau_decentralization_index
    with Tracer():
        assert equilibrium.tau_decentralization_index is not original
        assert (sys.modules["stakegame.measures"].tau_decentralization_index
                is equilibrium.tau_decentralization_index)
    assert equilibrium.tau_decentralization_index is original


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnostics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
