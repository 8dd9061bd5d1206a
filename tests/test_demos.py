"""Every demo's stdout pinned byte for byte under ``tests/data/demos``.

Each ``demos/*.py`` runs in a subprocess against the package in ``src``, and
its stdout must equal the file named after it.  A change to the solvers that
is meant to be exact must leave every file unchanged.

Regenerate the files only when a demo's output is meant to change::

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DATA = ROOT / "tests" / "data" / "demos"


def demo_stdout(demo: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, check=True, timeout=120
    )
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_stdout_matches_its_file(demo):
    assert demo_stdout(demo) == (DATA / f"{demo.stem}.txt").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (DATA / f"{demo.stem}.txt").write_bytes(demo_stdout(demo))
        print(f"wrote {DATA / demo.stem}.txt")
