"""The names the benchmark harness in perfbench/ reaches in the package.

perfbench/tracer.py replaces named functions of dghlab modules with timing
wrappers, looked up with getattr, and perfbench/setup_probe.py builds a
command's set-up through dghlab.cli.  A change that removes or renames one
of those names fails here instead of in a benchmark run."""
import importlib.util
import subprocess
import sys
from pathlib import Path

from dghlab import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    before = {name: getattr(cli, name) for name in tracer_mod.CLI_NAMES}
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert all(getattr(cli, name) is not fn for name, fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(cli, name) is fn for name, fn in before.items())


def test_setup_probe_exits_0():
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), "configs/breaking_run.yaml"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
