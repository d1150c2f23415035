"""Acceptance gate: one test per shipped coherence criterion.

Each test drives the corresponding registered check, enforces its runtime
cap where one is part of the contract, and registers a PASS/FAIL line for
the terminal summary (see conftest). The final criterion re-runs the
simulate command through a real subprocess, because byte-identical output
across worker counts is a promise about the installed CLI, not just the
library call.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import levybridge
from conftest import record_criterion
from levybridge.checks import CHECKS

CRITERIA = [
    # (registry name, runtime cap in seconds, None = no cap stated)
    ("normalization", 10.0),
    ("chapman_kolmogorov", 30.0),
    ("psi_martingale", 60.0),
    ("levy_recovery", None),
    ("stationary_increments", None),
    ("expectation_interpolation", None),
    ("liouville_reordering", None),
    ("pricing_martingale", None),
    ("binary_option", 300.0),
    ("gamma_option", None),
    ("sde_quadratic_variation", None),
    ("determinism", None),
]


@pytest.mark.parametrize("name,cap", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, cap):
    start = time.perf_counter()
    result = CHECKS[name]()
    elapsed = time.perf_counter() - start
    detail = f"statistic {result.statistic:.3g} vs threshold {result.threshold:.3g}"
    if cap is not None:
        detail += f", {elapsed:.1f}s of {cap:.0f}s budget"
    record_criterion(name, result.passed and (cap is None or elapsed < cap), detail)
    assert result.passed, f"{name}: {result.detail}"
    if cap is not None:
        assert elapsed < cap, f"{name} took {elapsed:.1f}s, cap is {cap:.0f}s"


def test_cli_simulate_worker_byte_identity(tmp_path):
    scenario = {
        "kernel": {"family": "brownian"},
        "horizon": 1.0,
        "terminal_law": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "seed": 1234,
        "simulate": {"grid": [0.1, 0.35, 0.6, 1.0], "n_paths": 32},
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    # the subprocess imports the package this test imported
    src = os.path.dirname(os.path.dirname(levybridge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    outputs = []
    for workers in (1, 8):
        out = tmp_path / f"paths_{workers}.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "levybridge.cli",
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--workers",
                str(workers),
            ],
            capture_output=True,
            text=True,
            timeout=240,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    record_criterion(
        "determinism (cli subprocess)",
        identical,
        "simulate --workers 1 vs 8, fixed seed, byte-compared CSV",
    )
    assert identical
