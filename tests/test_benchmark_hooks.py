"""The names the benchmark harness in perfbench/ reaches in the package.

perfbench/tracer.py replaces named functions of dghlab modules with timing
wrappers, looked up with getattr, and perfbench/setup_probe.py builds a
command's set-up through dghlab.cli.  A change that removes or renames one
of those names, or a call path that goes round them, fails here instead of
in a benchmark run."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from dghlab import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod


def test_tracer_installs_and_restores():
    tracer_mod = load_tracer()
    before = {name: getattr(cli, name) for name in tracer_mod.CLI_NAMES}
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert all(getattr(cli, name) is not fn for name, fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(cli, name) is fn for name, fn in before.items())


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.yaml")))
def test_setup_probe_exits_0(config):
    # every shipped config, so the dgh2 set-up (rho_initial) is built too
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), f"configs/{config}"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.yaml")))
def test_criterion_command_opens_one_criterion_span(config, tmp_path):
    tracer = load_tracer().Tracer()
    with tracer.installed(), tracer.operation("criterion"):
        code = cli.main(["criterion", "--config", str(ROOT / "configs" / config),
                         "--out", str(tmp_path / "o")])
    assert code == 0
    assert [sp.name for sp in tracer.spans].count("analysis.criterion") == 1


@pytest.mark.parametrize("command, config", [
    ("simulate", "breaking_run.yaml"),
    ("criterion", "two_component_vacuum.yaml"),
    ("sweep", "amplitude_sweep.yaml"),
])
def test_command_opens_one_grid_span(command, config, tmp_path):
    # main builds each run's grid once and hands it to the command, so the
    # benchmark's core.grid span counts one build, not a validation build
    # plus the command's own
    tracer = load_tracer().Tracer()
    with tracer.installed(), tracer.operation(command):
        code = cli.main([command, "--config", str(ROOT / "configs" / config),
                         "--out", str(tmp_path / "o"), "--N", "256", "--tmax", "0.05",
                         "--workers", "1"])
    assert code == 0
    assert [sp.name for sp in tracer.spans].count("core.grid") == 1


def test_lemmas_command_opens_three_gap_spans_per_field(tmp_path):
    # cli must call one_sided_gaps, full_kernel_gap and sobolev_gap by name
    # for every field, or the benchmark's analysis.gaps_s reads 0
    cfg = tmp_path / "lemmas.yaml"
    cfg.write_text(yaml.safe_dump({"grid": {"half_length": 20.0, "n_points": 1024},
                                   "lemmas": {"n_random": 3, "resolutions": [512]}}))
    tracer = load_tracer().Tracer()
    with tracer.installed(), tracer.operation("lemmas"):
        code = cli.main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    fields = json.loads((tmp_path / "o" / "lemmas_report.json").read_text())["fields"]
    assert len(fields) == 4 + 3
    assert [sp.name for sp in tracer.spans].count("analysis.gaps") == 3 * len(fields)


def test_lemmas_command_opens_one_convolution_span_per_field_and_level(tmp_path):
    # each checked field and each witness level convolves through
    # NonlocalOperator.one_sided_convolutions once, or the benchmark's
    # helmholtz.convolution_s misses the convolutions made elsewhere
    cfg = tmp_path / "lemmas.yaml"
    cfg.write_text(yaml.safe_dump({"grid": {"half_length": 20.0, "n_points": 1024},
                                   "lemmas": {"n_random": 3, "resolutions": [512, 1024]}}))
    tracer = load_tracer().Tracer()
    with tracer.installed(), tracer.operation("lemmas"):
        code = cli.main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    fields = json.loads((tmp_path / "o" / "lemmas_report.json").read_text())["fields"]
    assert len(fields) == 4 + 3
    assert [sp.name for sp in tracer.spans].count("helmholtz.convolution") == len(fields) + 2
