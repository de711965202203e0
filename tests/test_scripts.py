"""Smoke test of the study script, the only non-test user of the library
API outside the command line: the sharpness study's library function
plus one run of the script."""
import os
import subprocess
import sys
from pathlib import Path

import dghlab as dg

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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
