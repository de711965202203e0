import argparse
import json
import re
import weakref
from itertools import product
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

import dghlab as dg
from dghlab import cli
from dghlab.analysis import _vacuum_point, full_kernel_gap
from dghlab.cli import main
from dghlab.core import Field

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "src" / "dghlab" / "schemas"


def write_config(path: Path, **over) -> Path:
    cfg = {
        "equation": "dgh",
        "parameters": {"alpha": 1.0, "gamma": 0.0, "c0": 0.0},
        "grid": {"half_length": 20.0, "n_points": 1024},
        "solver": {"t_max": 0.5, "record_every": 4},
        "initial": {"preset": "gaussian_derivative", "args": {"a": 1.0}},
        "seeds": [0.0, 1.0],
    }
    cfg.update(over)
    file = path / "run.yaml"
    file.write_text(yaml.safe_dump(cfg))
    return file


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def read_all(out: Path) -> bytes:
    return b"".join(p.read_bytes() for p in sorted(out.iterdir()))


def strict_json(path: Path):
    """json.loads refusing NaN and Infinity, as RFC 8259 parsers do."""
    def refuse(name):
        raise ValueError(f"{path.name} holds the non-standard constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestSimulateCommand:
    def test_writes_all_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "t,min_ux,max_abs_u,E,F,dt"
        assert len(traj) > 2
        char = (out / "characteristic_000.csv").read_text().splitlines()
        assert char[0] == "t,q,g,qx,A_w,B_w,A_p,B_p,mom_res"
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, load_schema("run_summary.schema.json"))
        assert summary["criterion"]["margin"] == pytest.approx(-1.0, abs=1e-9)

    def test_float_format_round_trips(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()[1:]
        cells = [c for line in lines for c in line.split(",")]
        for c in cells:
            assert c == "" or float(c) == float(repr(float(c)))

    def test_two_component_characteristic_columns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            equation="dgh2",
            rho_initial={"preset": "gaussian_bump", "args": {"a": -1.0, "width": 0.7071067811865476}},
            solver={"t_max": 0.3, "record_every": 4},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "characteristic_000.csv").read_text().splitlines()[0]
        assert header == "t,q,g,qx,A_w,B_w,A_p,B_p,mom_res,rho_res"
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, load_schema("run_summary.schema.json"))

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_one_vacuum_search_per_run(self, tmp_path, command):
        # the slope tracker's seed and the criterion ask about the same
        # initial fields; the second asking gets the kept answer
        cfg = write_config(
            tmp_path,
            equation="dgh2",
            rho_initial={"preset": "gaussian_bump", "args": {"a": -1.0, "width": 0.7071067811865476}},
            solver={"t_max": 0.3, "record_every": 4},
            sweep={"amplitudes": [1.0, 2.0]},
        )
        _vacuum_point.cache_clear()
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv + (["--workers", "1"] if command == "sweep" else [])) == 0
        runs = 2 if command == "sweep" else 1
        info = _vacuum_point.cache_info()
        assert (info.misses, info.hits) == (runs, runs)

    def test_missing_config_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_seed_outside_domain_exits_2_without_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[0.0, 25.0], solver={"t_max": 0.1, "record_every": 4})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "seed 25.0 outside the domain" in capsys.readouterr().err

    def test_breaking_summary_reports_detection(self, tmp_path):
        cfg = write_config(tmp_path, solver={"t_max": 2.0, "record_every": 8})
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        rep = summary["blowup_report"]
        assert rep["blew_up"] is True
        assert rep["trigger"] == "slope_threshold"
        assert rep["t_detect"] < 2.0
        assert rep["t_detect"] < summary["criterion"]["time_bound"]

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--N", "512", "--tmax", "0.2"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid"]["n_points"] == 512
        assert summary["solver"]["t_max"] == 0.2


class TestCriterionCommand:
    def test_holds_and_writes_verdict(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["criterion", "--config", str(cfg), "--out", str(out)]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        jsonschema.validate(verdict, load_schema("criterion_verdict.schema.json"))
        assert verdict["verdict"]["holds"] is True
        assert verdict["verdict"]["time_bound"] == pytest.approx(2.0, abs=1e-8)

    def test_non_holding_is_still_success(self, tmp_path):
        cfg = write_config(tmp_path, initial={"preset": "gaussian_bump", "args": {"a": -0.2}})
        assert main(["criterion", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_two_component_with_dispersion_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            equation="dgh2",
            parameters={"alpha": 1.0, "gamma": 0.5, "c0": 0.0},
            rho_initial={"preset": "gaussian_bump", "args": {"a": -1.0}},
        )
        out = tmp_path / "o"
        assert main(["criterion", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "requires gamma = 0" in capsys.readouterr().err


class TestLemmasCommand:
    def test_default_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, lemmas={"n_random": 8, "resolutions": [512, 1024]})
        out = tmp_path / "out"
        assert main(["lemmas", "--config", str(cfg), "--out", str(out), "--N", "1024"]) == 0
        report = json.loads((out / "lemmas_report.json").read_text())
        jsonschema.validate(report, load_schema("lemmas_report.schema.json"))
        assert report["passed"] is True
        assert report["worst_min_gap"] >= -1e-8

    def test_corrupted_operator_fails_suite(self, tmp_path, monkeypatch):
        # flip the kernel symbol's sign so every convolution bound fails
        # (flipping the derivative symbol alone would only mirror the
        # one-sided pair)
        make_operator = cli.make_operator

        def corrupted(grid, params):
            op = make_operator(grid, params)
            object.__setattr__(op, "symbol_q", -op.symbol_q)
            return op

        monkeypatch.setattr(cli, "make_operator", corrupted)
        cfg = write_config(tmp_path, lemmas={"n_random": 4, "resolutions": [512]})
        out = tmp_path / "out"
        code = main(["lemmas", "--config", str(cfg), "--out", str(out), "--N", "512"])
        assert code == 1
        report = json.loads((out / "lemmas_report.json").read_text())
        assert report["passed"] is False

    def test_fft_calls_per_random_field(self, tmp_path, monkeypatch):
        # runs differing only in n_random differ only by their random
        # fields: each costs one irfft for its samples, plus one rfft and
        # one 2-row irfft each for its quarter band and for the one-sided
        # pair, whose mean is the full-kernel gap
        calls = []

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return call

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        counts = []
        for n_random in (2, 6):
            cfg = write_config(tmp_path, lemmas={"n_random": n_random, "resolutions": [512]})
            calls.clear()
            assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--seed", "11"]) == 0
            counts.append(len(calls))
        assert counts[1] - counts[0] <= 5 * 4

    @pytest.mark.parametrize("lemmas", [
        {"max_mode": 513},
        {"max_mode": 300},
        {"resolutions": []},
        {"n_random": -3},
        {"n_modes": 0},
        {"n_modes": -1},
    ], ids=["max_mode_above_half", "max_mode_above_quarter", "no_resolutions", "negative_n_random",
            "no_modes", "negative_n_modes"])
    def test_bad_lemma_config_exits_2_without_outputs(self, tmp_path, capsys, lemmas):
        # N = 1024: a mode above N/2 = 512 has no bin, one above N/4 = 256
        # is cut from the quarter band the gaps are checked on
        cfg = write_config(tmp_path, lemmas={"n_random": 2, "resolutions": [512], **lemmas})
        out = tmp_path / "out"
        assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 2
        assert "lemmas." in capsys.readouterr().err
        assert not out.exists()

    def test_fields_freed_as_checked(self, tmp_path, monkeypatch):
        # each field (and the quarter band cached on it) is freed once its
        # entry is made, and none outlives the command
        refs, alive = [], []
        gap_entries = cli._gap_entries

        def tracked(u, op, params):
            alive.append(sum(r() is not None for r in refs))
            refs.append(weakref.ref(u))
            return gap_entries(u, op, params)

        monkeypatch.setattr(cli, "_gap_entries", tracked)
        cfg = write_config(tmp_path, lemmas={"n_random": 5, "resolutions": [512]})
        assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(refs) == 4 + 5
        assert alive == [0] * len(refs)
        assert all(r() is None for r in refs)

    def test_one_field_per_checked_datum(self, tmp_path, monkeypatch):
        # a Field (a copy and a finiteness scan) is built for each lemma
        # field and each witness level only: the gaps and the convolutions
        # behind them stay arrays
        built = []
        post_init = Field.__post_init__

        def counted(self, rfft_row=None):
            built.append(self.grid.n_points)
            post_init(self, rfft_row)

        monkeypatch.setattr(Field, "__post_init__", counted)
        cfg = write_config(tmp_path, lemmas={"n_random": 3, "resolutions": [512]})
        assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert built == [1024] * (4 + 3) + [512]

    def test_full_kernel_entries_from_each_fields_own_pair(self, tmp_path):
        # the report's full-kernel gap of every field is the one
        # full_kernel_gap computes for that field without a pair
        cfg = write_config(tmp_path, lemmas={"n_random": 4, "resolutions": [512]})
        out = tmp_path / "out"
        assert main(["lemmas", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        fields = json.loads((out / "lemmas_report.json").read_text())["fields"]
        grid, params = dg.make_grid(20.0, 1024), dg.make_parameters(1.0)
        lemma_fields = cli._lemma_fields(grid, params, np.random.default_rng(5), 4, 30, 80)
        for name, u, p in lemma_fields:
            fk = full_kernel_gap(u, dg.make_operator(grid, p), p)
            assert fields[name]["full_kernel"] == {"min_gap": fk.min_gap, "argmin_x": fk.argmin_x}
        assert len(fields) == 4 + 4

    def test_seed_changes_fields_not_verdict(self, tmp_path):
        cfg = write_config(tmp_path, lemmas={"n_random": 4, "resolutions": [512]})
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"out{seed}"
            assert main([
                "lemmas", "--config", str(cfg), "--out", str(out),
                "--N", "512", "--seed", str(seed),
            ]) == 0
            outs.append(json.loads((out / "lemmas_report.json").read_text()))
        assert outs[0]["fields"]["random_000"] != outs[1]["fields"]["random_000"]


class TestSweepCommand:
    def sweep_config(self, tmp_path, **over):
        base = dict(
            solver={"t_max": 4.5, "record_every": 16},
            sweep={"amplitudes": [0.5, 1.0, 2.0]},
        )
        base.update(over)
        return write_config(tmp_path, **base)

    def test_amplitude_sweep_matches_bounds(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("index,amplitude,c0,gamma,alpha,holds,margin,time_bound")
        rows = [line.split(",") for line in lines[1:]]
        bounds = [float(r[7]) for r in rows]
        assert bounds == pytest.approx([4.0, 2.0, 1.0], abs=1e-8)
        for r in rows:
            assert float(r[6]) < 0.0  # margin
            assert r[8] == "true"  # blew_up
            assert 0.5 * float(r[7]) < float(r[10]) < float(r[7])  # t_detect vs time_bound
            assert float(r[11]) < -1e4  # min_slope_at_detect
            assert r[12] == "ok"

    def test_cell_breakdown_recorded_in_row(self, tmp_path):
        cfg = self.sweep_config(tmp_path, sweep={"amplitudes": [1.0, 1e200]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses[0] == "ok"
        # the overflowing cell reports a breakdown but the sweep completes
        assert statuses[1] == "ok" or statuses[1].startswith("error")

    def test_empty_axes_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, sweep={})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_preset_exits_2_without_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            initial={"preset": "gaussian_derivative", "args": {"a": 1.0, "bogus": 2}},
            sweep={"amplitudes": [1.0, 2.0]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("flag,key", [("0", None), ("-3", None), (None, 0)])
    def test_workers_below_one_exit_2(self, tmp_path, flag, key):
        over = {} if key is None else {"workers": key}
        cfg = self.sweep_config(tmp_path, **over)
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv + (["--workers", flag] if flag else [])) == 2

    @pytest.mark.parametrize("exc", [TypeError, ValueError])
    def test_non_arithmetic_cell_error_fails_sweep(self, tmp_path, monkeypatch, exc):
        calls = []

        def broken(*args, **kwargs):
            calls.append(1)
            raise exc("injected")

        monkeypatch.setattr(cli, "simulate", broken)
        cfg = self.sweep_config(tmp_path)
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--workers", "1"]
        if exc is ValueError:
            assert main(argv) == 2
        else:
            with pytest.raises(RuntimeError, match="sweep cell 0: TypeError: injected"):
                main(argv)
        assert len(calls) == 1  # the cells after the failing one never run


class TestConfigErrors:
    """A config that cannot be used exits 2, names the offending key and
    writes nothing, in every command."""

    def run(self, tmp_path, capsys, command, **over):
        cfg = write_config(tmp_path, **over)
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err

    def test_misspelled_keys_exit_2(self, tmp_path, capsys):
        code, _ = self.run(
            tmp_path, capsys, "criterion",
            solver={"tmax": 0.1, "record_evry": 2}, grid={"n_point": 256},
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["simulate", "criterion", "lemmas", "sweep"])
    @pytest.mark.parametrize("over, path", [
        ({"solver": {"t_max": 0.1, "record_evry": 2}}, "solver.record_evry"),
        ({"grid": {"n_point": 256}}, "grid.n_point"),
        ({"initial": {"preset": "sech_bump", "arg": {"a": 2.0}}}, "initial.arg"),
        ({"lemmas": {"n_randm": 3}}, "lemmas.n_randm"),
        ({"worker": 2}, "worker"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_unknown_key_exits_2_naming_path(self, tmp_path, capsys, command, over, path):
        code, err = self.run(tmp_path, capsys, command, **over)
        assert code == 2
        assert f"unknown config key {path}" in err

    @pytest.mark.parametrize("over, path", [
        ({"parameters": {"alpha": "abc"}}, "parameters.alpha"),
        ({"workers": None}, "workers"),
        ({"seeds": 0.5}, "seeds"),
        ({"solver": None}, "solver"),
        ({"sweep": {"c0_gamma": [[0.0, 0.0, 1.0]]}}, "sweep.c0_gamma"),
        # integer keys refuse what int() would truncate
        ({"grid": {"n_points": 1024.7}}, "grid.n_points"),
        ({"solver": {"t_max": 0.5, "record_every": 2.5}}, "solver.record_every"),
        ({"solver": {"t_max": 0.5, "record_every": True}}, "solver.record_every"),
        ({"lemmas": {"resolutions": [512, 1024.5]}}, "lemmas.resolutions"),
        ({"rng_seed": False}, "rng_seed"),
        # a density section the one-component equation would ignore
        ({"rho_initial": {"preset": "gaussian_bump", "args": {"a": -1.0}}}, "rho_initial"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_malformed_value_exits_2_naming_path(self, tmp_path, capsys, over, path):
        code, err = self.run(tmp_path, capsys, "criterion", **over)
        assert code == 2
        assert path in err
        assert "Traceback" not in err

    def test_integral_float_accepted_for_integer_key(self, tmp_path):
        cfg = cli.load_config(str(write_config(tmp_path, grid={"n_points": 512.0})), None)
        n_points = cfg.sections["grid"]["n_points"]
        assert n_points == 512 and isinstance(n_points, int)

    @pytest.mark.parametrize("command", ["simulate", "criterion", "lemmas", "sweep"])
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, command):
        # a NaN passes every "<= 0" test; each command refuses a non-finite
        # value in the sections it uses before it writes anything
        keys = [("parameters", k) for k in ("alpha", "gamma", "c0", "sigma")] + [("grid", "half_length")]
        if command in ("simulate", "sweep"):
            keys += [("solver", k) for k in ("t_max", "cfl", "dt_min", "slope_blowup_threshold")]
        for (section, key), value in product(keys, (np.nan, np.inf)):
            code, err = self.run(tmp_path, capsys, command, sweep={"amplitudes": [1.0]},
                                 **{section: {key: value}})
            assert code == 2 and f"{key} must be" in err, (section, key, value)

    def test_omitted_sections_take_library_defaults(self, tmp_path):
        cfg_file = tmp_path / "bare.yaml"
        cfg_file.write_text("equation: dgh\n")
        cfg = cli.load_config(str(cfg_file), None)
        assert cfg.solver() == dg.SolverConfig(t_max=2.0)
        assert cfg.parameters() == dg.make_parameters(1.0)
        assert cfg.grid() == dg.make_grid(20.0, 4096)
        # the default half-length follows alpha, from the file or a flag
        cfg = cli.load_config(str(cfg_file), argparse.Namespace(alpha=2.0))
        assert cfg.grid() == dg.make_grid(40.0, 4096)

    @pytest.mark.parametrize("command", ["simulate", "criterion"])
    def test_bad_preset_argument_exits_2(self, tmp_path, capsys, command):
        code, err = self.run(
            tmp_path, capsys, command,
            initial={"preset": "gaussian_derivative", "args": {"a": 1.0, "bogus": 2}},
        )
        assert code == 2
        assert "bogus" in err


class TestSamplesFile:
    @pytest.mark.parametrize("case", ["all", "short", "missing"])
    def test_samples_file(self, tmp_path, capsys, case):
        # the breaking_run datum read back from its samples gives the
        # preset's verdict; N - 1 samples or no file exits 2, writing nothing
        preset = ROOT / "configs" / "breaking_run.yaml"
        cfg = cli.load_config(str(preset), None)
        values = cfg.initial_state(cfg.grid(), cfg.parameters()).u.values
        if case != "missing":
            np.savetxt(tmp_path / "u0.txt", values if case == "all" else values[:-1])
        raw = yaml.safe_load(preset.read_text())
        raw["initial"] = {"samples_file": str(tmp_path / "u0.txt")}
        (tmp_path / "samples.yaml").write_text(yaml.safe_dump(raw))
        argv = ["criterion", "--config", str(tmp_path / "samples.yaml"), "--out", str(tmp_path / "s")]
        if case != "all":
            assert main(argv) == 2 and "cannot build the initial data" in capsys.readouterr().err
            assert not (tmp_path / "s").exists()
            return
        assert main(argv) == 0
        assert main(["criterion", "--config", str(preset), "--out", str(tmp_path / "p")]) == 0
        verdicts = [(tmp_path / d / "verdict.json").read_bytes() for d in ("s", "p")]
        assert verdicts[0] == verdicts[1]


class TestReadme:
    """README's command-line and config sections name what cli accepts."""

    def test_flag_line_lists_every_flag(self):
        text = (ROOT / "README.md").read_text()
        flags = re.search(r"^Flags `([^`]*)`", text, re.M).group(1).split()
        assert sorted(flags) == sorted(f"--{flag}" for flag in cli.FLAGS)

    def test_config_layout_keys_are_config_keys(self):
        text = (ROOT / "README.md").read_text()
        block = re.search(r"```yaml\n(.*?)```", text, re.S).group(1)
        # raises ConfigError on a key path outside CONFIG_KEYS
        cli._convert(yaml.safe_load(block), cli.CONFIG_KEYS, "")


class TestDeterminism:
    def test_simulate_outputs_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "7"])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
        assert read_all(out1) == read_all(out2)

    def test_sweep_outputs_bit_identical_across_worker_counts(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"half_length": 20.0, "n_points": 512},
            solver={"t_max": 2.0, "record_every": 16},
            sweep={"amplitudes": [1.0, 2.0]},
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["sweep", "--config", str(cfg), "--out", str(out1), "--workers", "1"])
        main(["sweep", "--config", str(cfg), "--out", str(out2), "--workers", "4"])
        assert read_all(out1) == read_all(out2)

    def test_sweep_csv_identical_for_serial_pool_and_default(self, tmp_path):
        # 6 cells: at --workers 2 each pool worker runs several of them
        cfg = write_config(
            tmp_path,
            grid={"half_length": 20.0, "n_points": 512},
            solver={"t_max": 2.0, "record_every": 16},
            sweep={"amplitudes": [0.5, 1.0, 2.0], "c0_gamma": [[0.0, 0.0], [0.4, 0.7]]},
        )
        outs = []
        for extra in (["--workers", "1"], ["--workers", "2"], []):
            out = tmp_path / f"o{len(outs)}"
            assert main(["sweep", "--config", str(cfg), "--out", str(out), *extra]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0].count(b"\n") == 7
        assert outs[0] == outs[1] == outs[2]


class TestStrictJson:
    def test_every_json_output_is_standard(self, tmp_path):
        # the tracked slope of this breaking run ends at -inf, and a lemma
        # suite on one resolution fits no witness order
        cfg = write_config(
            tmp_path,
            solver={"t_max": 2.0, "record_every": 8},
            lemmas={"n_random": 2, "resolutions": [1024]},
            sweep={"amplitudes": [1.0]},
        )
        for command in ("simulate", "criterion", "lemmas", "sweep"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        files = {p.name: p for p in tmp_path.glob("*/*.json")}
        assert sorted(files) == ["lemmas_report.json", "summary.json", "verdict.json"]
        reports = {name: strict_json(p) for name, p in files.items()}
        for name, schema in (
            ("summary.json", "run_summary.schema.json"),
            ("verdict.json", "criterion_verdict.schema.json"),
            ("lemmas_report.json", "lemmas_report.schema.json"),
        ):
            jsonschema.validate(reports[name], load_schema(schema))
        assert reports["summary.json"]["blowup_report"]["min_slope_at_detect"] is None
        witness = reports["lemmas_report.json"]["peakon_witness_study"]
        assert witness["equality_region_order"] is None
        # the CSV keeps the value itself
        row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[11] == "-inf"
