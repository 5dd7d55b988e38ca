"""Smoke tests: every script under ``demos/``, and ``python -m seeco``, run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` from the checkout's root, with ``src`` on ``PYTHONPATH``."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    done = run_python(str(demo))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_module_entry_point_generates_and_solves(tmp_path):
    workflow, out = tmp_path / "w.json", tmp_path / "res"
    done = run_python("-m", "seeco", "generate", "--tasks", "6", "--out", str(workflow))
    assert done.returncode == 0, done.stderr
    done = run_python("-m", "seeco", "solve", "--workflow", str(workflow),
                      "--strategy", "local", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert (out / "summary.csv").is_file()
