"""Smoke tests: every bundled example runs end to end.

Each ``examples/*.py`` runs as a subprocess (about 15 s for the set on
two cores), so a stale import or a broken public API fails here.
Two examples also have their output checked.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: examples whose output a dedicated test below also checks
OUTPUT_CHECKED = {"quickstart.py", "paper_walkthrough.py"}


def run_example(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert OUTPUT_CHECKED <= names
    assert len(names) >= 5  # quickstart + >= 4 scenario walkthroughs


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in EXAMPLES.glob("*.py") if p.name not in OUTPUT_CHECKED),
)
def test_example_runs(name):
    run_example(name)


def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "verified against" in out
    assert "rdbs" in out


def test_paper_walkthrough_runs():
    out = run_example("paper_walkthrough.py")
    assert "match Fig. 4(c) exactly" in out
    assert "distances unchanged by reordering" in out
