"""Smoke tests of the study scripts, the only non-test users of the
library API outside the command line: the breaking-time study's compute
function at N = 512, and the sharpness study's library function plus one
run of the script."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dghlab as dg

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_breaking_time_study():
    rows = load("breaking_time_study").run_family([1.0, 2.0], 512, 20.0)
    for a, margin, bound, t_detect, slope in rows:
        assert margin < 0.0
        assert bound == pytest.approx(2.0 / a, abs=1e-6)
        assert 0.5 * bound < t_detect < bound
        assert slope < -1e4


def test_sharpness_study():
    study = dg.peakon_witness_study(dg.make_parameters(1.0), [512, 1024])
    levels = study["levels"]
    assert [lev["n_points"] for lev in levels] == [512, 1024]
    for lev in levels:
        assert lev["min_gap"] >= -1e-8
        assert lev["gap_equality_region"] < lev["gap_at_peak"]
    # the equality-region gap converges faster than first order
    assert levels[0]["gap_equality_region"] / levels[1]["gap_equality_region"] > 3.0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "sharpness_study.py"), "--resolutions", "512", "1024"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert [line.split()[0] for line in run.stdout.splitlines()[2:]] == ["512", "1024"]
