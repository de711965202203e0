"""Smoke tests of the study scripts, the only non-test users of the
library API outside the command line: import each and run its compute
function at N = 512."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
    rows = load("sharpness_study").gap_levels(1.0, 0.0, 0.0, [512, 1024])
    assert [r[0] for r in rows] == [512, 1024]
    for _, peak, away, min_gap in rows:
        assert min_gap >= -1e-8
        assert away < peak
    # the equality-region gap converges faster than first order
    assert rows[0][2] / rows[1][2] > 3.0
