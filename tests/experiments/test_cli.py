"""Experiment modules run as ``python -m repro.experiments.<name>``.

The package must not import its experiment modules eagerly: runpy would
then find the module already in ``sys.modules`` and warn that running it
"may result in unpredictable behaviour" (its body runs twice).
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def test_cli_runs_without_a_runtime_warning():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.experiments.pipeline"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "persistent+overlap" in proc.stdout

