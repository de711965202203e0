"""Set-up that every ``dgh-lab`` invocation pays, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CONFIG

Imports ``dghlab.cli`` from the checkout's ``src``, loads CONFIG and
builds the grid, the operator and the initial state, then exits.  The
benchmark times the whole process from the outside.
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dghlab import cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"dghlab imported from {cli.__file__}, not from the checkout")
cfg = cli.load_config(sys.argv[1], argparse.Namespace())
params = cfg.parameters()
grid = cfg.grid()
op = cli.make_operator(grid, params)
state = cfg.initial_state(grid, params)
