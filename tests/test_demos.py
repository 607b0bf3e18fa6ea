"""The demos and the README quick start run against the public API."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Demo 05 writes into demos/out/ and takes a campaign's time; it is left out.
DEMOS = [
    "01_simulate_and_estimate.py",
    "02_realization.py",
    "03_stability_certificate.py",
    "04_bound_constants.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    assert float(capsys.readouterr().out) < 0.1
