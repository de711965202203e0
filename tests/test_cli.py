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
from dghlab import analysis, cli, helmholtz
from dghlab.analysis import full_kernel_gap, gap_minimum, one_sided_gaps
from dghlab.cli import main
from dghlab.core import Field, Parameters
from draws import full_row_draw
from lemma_oracle import gap_args

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

    def test_two_component_off_gamma_zero_has_no_criterion(self, tmp_path):
        # the two-component criterion is stated only for gamma = 0, and the
        # density invariant holds only along paths moving at u, so the
        # characteristic files have no rho_res column
        cfg = write_config(
            tmp_path,
            equation="dgh2",
            parameters={"alpha": 1.0, "gamma": 0.5, "c0": 0.0},
            rho_initial={"preset": "gaussian_bump", "args": {"a": -1.0, "width": 0.7071067811865476}},
            grid={"half_length": 20.0, "n_points": 256},
            solver={"t_max": 0.1, "record_every": 4},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, load_schema("run_summary.schema.json"))
        assert summary["criterion"] is None
        header = (out / "characteristic_000.csv").read_text().splitlines()[0]
        assert header == "t,q,g,qx,A_w,B_w,A_p,B_p,mom_res"

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

    def test_streams_records_into_the_paths_and_rows(self, tmp_path, monkeypatch):
        # simulate hands each record to the path integrator and its
        # trajectory.csv row and keeps none; the files read as the list
        # run's records and advect paths, to the last bit
        kept = []

        def streamed(*args):
            records, report = dg.simulate(*args)
            kept.append(records)
            return records, report

        monkeypatch.setattr(cli, "simulate", streamed)
        cfg = write_config(tmp_path, solver={"t_max": 3.0, "record_every": 4})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert kept == [[]]
        params = dg.make_parameters(1.0)
        state = dg.State(0.0, dg.ic_preset("gaussian_derivative", dg.make_grid(20.0, 1024), a=1.0))
        records, _ = dg.simulate(state, dg.SolverConfig(t_max=3.0, record_every=4), params)
        summary = json.loads((out / "summary.json").read_text())
        traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert summary["blowup_report"]["blew_up"] and summary["n_records"] == len(records)
        assert np.array_equal(traj[:, 0], [r.state.t for r in records])
        for i, path in enumerate(dg.advect(records, [0.0, 1.0], params)):
            cols = np.loadtxt(out / f"characteristic_{i:03d}.csv", delimiter=",", skiprows=1).T
            for col, want in zip(cols, (path.t, path.q, path.g, path.qx)):
                assert np.array_equal(col, want)

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
        # flip the kernel symbol's sign, in the operator the gap functions
        # build, so every convolution bound fails (flipping the derivative
        # symbol alone would only mirror the one-sided pair)
        def corrupted(grid, alpha):
            op = dg.NonlocalOperator(grid, alpha)
            object.__setattr__(op, "symbol_q", -op.symbol_q)
            return op

        monkeypatch.setattr(analysis, "NonlocalOperator", corrupted)
        cfg = write_config(tmp_path, lemmas={"n_random": 4, "resolutions": [512]})
        out = tmp_path / "out"
        code = main(["lemmas", "--config", str(cfg), "--out", str(out), "--N", "512"])
        assert code == 1
        report = json.loads((out / "lemmas_report.json").read_text())
        assert report["passed"] is False

    def test_fft_calls_per_random_field(self, tmp_path, monkeypatch):
        # runs differing only in n_random differ only by their random
        # fields: each is built from its drawn row, and one length-N irfft
        # of that row gives the peak it is divided by and, divided too, its
        # samples; its quarter band is one 2-row irfft on its working grid
        # (max_mode 80: m = 512 < N = 1024), and the one-sided pair, whose
        # mean is the full-kernel gap, one rfft there and one 2-row irfft
        # at N: 4 calls, 3 length-N rows and 3 working-grid rows.
        # [calls, rows] are counted as TestFftBudget counts them, the rows
        # split by the length of the transform's real side
        n = 1024
        calls = [0, 0, 0]

        def counted(fn, real_input):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                length = (args[0] if real_input else out).shape[-1]
                calls[0] += 1
                calls[1 if length == n else 2] += out.size // out.shape[-1]
                return out
            return call

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), name == "rfft"))
        counts = []
        for n_random in (2, 6):
            cfg = write_config(tmp_path, lemmas={"n_random": n_random, "resolutions": [512]})
            calls[:] = [0, 0, 0]
            assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--seed", "11", "--N", str(n)]) == 0
            counts.append(list(calls))
        assert counts[1][0] - counts[0][0] == 4 * 4
        assert counts[1][1] - counts[0][1] == 3 * 4
        assert counts[1][2] - counts[0][2] == 3 * 4

    def test_helmholtz_symbols_formed_once_per_grid(self, tmp_path, monkeypatch):
        # the CLI's operator check and every field's gap operator share the
        # config grid's symbols (N = 1024), and each resolution of the
        # peakon witness study is a grid of its own: 1 + 2 formations
        formed = []
        form = helmholtz._symbols

        def counted(xi, ik, alpha):
            formed.append(xi.size)
            return form(xi, ik, alpha)

        monkeypatch.setattr(helmholtz, "_symbols", counted)
        cfg = write_config(tmp_path, lemmas={"n_random": 20, "resolutions": [512, 1024]})
        assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert formed == [513, 257, 513]

    def test_report_is_deterministic(self, tmp_path):
        # two runs at one seed write the same bytes
        cfg = write_config(tmp_path, lemmas={"n_random": 6, "max_mode": 20, "resolutions": [512]})
        reports = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["lemmas", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
            reports.append((out / "lemmas_report.json").read_bytes())
        assert reports[0] == reports[1]

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
        # each field's row and samples are freed once its entry is made,
        # and none outlives the command
        refs, alive = [], []
        gap_entries = cli._gap_entries

        def tracked(grid, row, samples, alpha, k):
            alive.append(sum(r() is not None for r in refs))
            refs.extend((weakref.ref(row), weakref.ref(samples)))
            return gap_entries(grid, row, samples, alpha, k)

        monkeypatch.setattr(cli, "_gap_entries", tracked)
        cfg = write_config(tmp_path, lemmas={"n_random": 5, "resolutions": [512]})
        assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(refs) == 2 * (4 + 5)
        assert alive == [0] * (4 + 5)
        assert all(r() is None for r in refs)

    def test_one_field_per_checked_datum(self, tmp_path, monkeypatch):
        # a Field (a copy and a finiteness scan) is built for the initial
        # datum, each preset and witness field and each witness level only:
        # the random fields, the gaps and the convolutions behind them stay
        # arrays
        built = []
        post_init = Field.__post_init__

        def counted(self, samples=None, rfft_row=None):
            built.append(self.grid.n_points)
            post_init(self, samples, rfft_row)

        monkeypatch.setattr(Field, "__post_init__", counted)
        cfg = write_config(tmp_path, lemmas={"n_random": 3, "resolutions": [512]})
        assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert built == [1024] * (1 + 4) + [512]

    def test_one_parameters_per_run(self, tmp_path, monkeypatch):
        # the config's Parameters is the only one built: every lemma field,
        # random ones at their drawn k included, is checked on plain
        # (alpha, k) numbers
        built = []
        post_init = Parameters.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Parameters, "__post_init__", counted)
        cfg = write_config(tmp_path, lemmas={"n_random": 3, "resolutions": [512]})
        assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1

    def test_full_kernel_entries_from_each_fields_own_pair(self, tmp_path):
        # the report's full-kernel gap of every field is the one
        # full_kernel_gap computes from that field's own one-sided pair
        cfg = write_config(tmp_path, lemmas={"n_random": 4, "resolutions": [512]})
        out = tmp_path / "out"
        assert main(["lemmas", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        fields = json.loads((out / "lemmas_report.json").read_text())["fields"]
        grid, params = dg.make_grid(20.0, 1024), dg.make_parameters(1.0)
        lemma_fields = cli._lemma_fields(grid, params, np.random.default_rng(5), 4, 30, 80)
        for name, row, samples, k in lemma_fields:
            fk = full_kernel_gap(one_sided_gaps(*gap_args(grid, row, samples), params.alpha, k))
            assert fields[name]["full_kernel"] == gap_minimum(fk, grid)
        assert len(fields) == 4 + 4

    def test_random_fields_match_the_same_draws_built_from_samples(self):
        # a random field built from its drawn row moves its gap entries
        # only at round-off from the same draw built from its samples,
        # irfft(row) / peak
        grid, params = dg.make_grid(20.0, 4096), dg.make_parameters(1.0)
        fields = cli._lemma_fields(grid, params, np.random.default_rng(5), 12, 30, 80)
        redraw = np.random.default_rng(5)
        for name, row, samples, k in list(fields)[4:]:
            assert k == float(redraw.uniform(-1.0, 1.0))
            _, vals = full_row_draw(redraw, grid, 30, 80)
            u = Field(grid, vals / np.max(np.abs(vals)))
            drawn = cli._gap_entries(grid, u.spectrum, u.values, params.alpha, k)
            for quantity, entry in cli._gap_entries(grid, row, samples, params.alpha, k).items():
                assert entry == pytest.approx(drawn[quantity], rel=0.0, abs=1e-13), name

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

    def test_cells_keep_no_record(self, tmp_path, monkeypatch):
        kept = []

        def counted(*args):
            records, report = dg.simulate(*args)
            kept.append(records)
            return records, report

        monkeypatch.setattr(cli, "simulate", counted)
        cfg = self.sweep_config(tmp_path, solver={"t_max": 0.5, "record_every": 1})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--workers", "1"]) == 0
        assert kept == [[], [], []]

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
        rows = [line.split(",") for line in lines[1:]]
        assert [r[-1] for r in rows] == ["ok", "ok"]
        # the 1e200 cell has a finite bound and stops at once on dt underflow
        assert float(rows[1][7]) > 0.0
        assert rows[1][9] == "dt_underflow"

    def test_cell_arithmetic_error_written_to_row(self, tmp_path, monkeypatch):
        def overflow(*args, **kwargs):
            raise OverflowError("injected")

        monkeypatch.setattr(cli, "simulate", overflow)
        cfg = self.sweep_config(tmp_path, sweep={"amplitudes": [1.0, 2.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[:2] for r in rows] == [["0", "1"], ["1", "2"]]
        for r in rows:
            assert r[5:] == [""] * 7 + ["error: OverflowError: injected"]

    def test_two_component_off_gamma_zero_leaves_criterion_blank(self, tmp_path):
        cfg = self.sweep_config(
            tmp_path,
            equation="dgh2",
            parameters={"alpha": 1.0, "gamma": 0.5, "c0": 0.0},
            rho_initial={"preset": "gaussian_bump", "args": {"a": -1.0, "width": 0.7071067811865476}},
            grid={"half_length": 20.0, "n_points": 256},
            solver={"t_max": 0.1, "record_every": 4},
            sweep={"amplitudes": [1.0]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        row = dict(zip(cli.SWEEP_HEADER, (out / "sweep.csv").read_text().splitlines()[1].split(",")))
        assert [row[k] for k in ("holds", "margin", "time_bound")] == ["", "", ""]
        assert (row["trigger"], row["status"]) == ("horizon_reached", "ok")

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

    def test_non_finite_amplitude_exits_2_before_any_cell(self, tmp_path, monkeypatch, capsys):
        def cell_ran(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "simulate", cell_ran)
        cfg = self.sweep_config(tmp_path, sweep={"amplitudes": [1.0, np.nan]})
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 2
        assert "sweep.amplitudes" in capsys.readouterr().err
        assert not out.exists()

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
        # a non-finite seed, refused before any solve
        ({"seeds": [0.0, np.nan]}, "seeds"),
        # refused at load time, not after the work that first reads them
        ({"lemmas": {"resolutions": [512, 17]}}, "lemmas.resolutions"),
        ({"sweep": {"c0_gamma": [[np.nan, 0.0]]}}, "sweep.c0_gamma"),
        ({"rng_seed": -1}, "rng_seed"),
        # number keys refuse YAML booleans, which float() would take as 1.0
        ({"parameters": {"alpha": True}}, "parameters.alpha"),
        ({"solver": {"t_max": True}}, "solver.t_max"),
        ({"grid": {"half_length": True}}, "grid.half_length"),
        ({"seeds": [0.0, True]}, "seeds"),
        ({"sweep": {"amplitudes": [True, 0.5]}}, "sweep.amplitudes"),
        ({"sweep": {"c0_gamma": [[0.0, False]]}}, "sweep.c0_gamma"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_malformed_value_exits_2_naming_path(self, tmp_path, capsys, over, path):
        # lemmas is the command that reads the resolutions and the seed
        for command in ("criterion", "lemmas"):
            code, err = self.run(tmp_path, capsys, command, **over)
            assert code == 2, command
            assert path in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value, path", [
        ("lemmas", "--seed", "-1", "rng_seed"),
        ("criterion", "--N", "4096.5", "grid.n_points"),
        ("simulate", "--N", "abc", "grid.n_points"),
        ("sweep", "--workers", "2.5", "workers"),
        ("criterion", "--alpha", "abc", "parameters.alpha"),
    ])
    def test_malformed_flag_exits_2_naming_path(self, tmp_path, capsys, command, flag, value, path):
        # a flag's value goes through its config key's converter
        cfg = write_config(tmp_path, sweep={"amplitudes": [1.0]})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert f"bad value for {path}: {value!r}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "criterion", "lemmas", "sweep"])
    def test_out_dir_under_a_file_exits_2(self, tmp_path, capsys, command, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("simulate", "check_criterion_dgh", "peakon_witness_study"):
            monkeypatch.setattr(cli, name, no_work)
        cfg = write_config(tmp_path, sweep={"amplitudes": [1.0]})
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        for out in (blocker, blocker / "sub"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "out_dir" in err and f"{blocker} is not a directory" in err
            assert "Traceback" not in err
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["simulate", "criterion", "lemmas", "sweep"])
    @pytest.mark.parametrize("over, message", [
        ({"initial": {"args": {"a": 1.0}}}, "initial condition needs 'preset' or 'samples_file'"),
        ({"equation": "dgh2"}, "equation dgh2 needs a rho_initial section"),
        ({"initial": {"preset": 3}}, "bad value for initial.preset: 3"),
        ({"equation": "kdv"}, "equation must be dgh or dgh2, got 'kdv'"),
    ], ids=["no_preset", "no_rho_initial", "preset_not_a_string", "unknown_equation"])
    def test_unusable_setup_exits_2(self, tmp_path, capsys, command, over, message):
        code, err = self.run(tmp_path, capsys, command, sweep={"amplitudes": [1.0]}, **over)
        assert code == 2
        assert message in err

    def test_unparsable_yaml_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("grid: {n_points: 256\n")
        out = tmp_path / "out"
        assert main(["criterion", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cannot parse config" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_accepted_for_integer_key(self, tmp_path):
        cfg = cli.load_config(str(write_config(tmp_path, grid={"n_points": 512.0})), None)
        n_points = cfg.sections["grid"]["n_points"]
        assert n_points == 512 and isinstance(n_points, int)

    @pytest.mark.parametrize("command", ["simulate", "criterion", "lemmas", "sweep"])
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, command):
        # a NaN passes every "<= 0" test; each command refuses a non-finite
        # value in every library section before it writes anything
        keys = [("parameters", k) for k in ("alpha", "gamma", "c0", "sigma")] + [("grid", "half_length")]
        keys += [("solver", k) for k in ("t_max", "cfl", "dt_min", "slope_blowup_threshold")]
        for (section, key), value in product(keys, (np.nan, np.inf)):
            code, err = self.run(tmp_path, capsys, command, sweep={"amplitudes": [1.0]},
                                 **{section: {key: value}})
            assert code == 2 and f"{key} must be" in err, (section, key, value)

    @pytest.mark.parametrize("flags, key", [
        (["--alpha", "1e200"], "alpha"),
        (["--alpha", "1e-200"], "alpha"),
        (["--gamma", "1e300", "--alpha", "1e-10"], "gamma"),
        (["--L", "1e-320"], "half_length"),
        (["--L", "1e308"], "half_length"),
        # L = 20 alpha = 2e-159: pi/dx = 5e160 is finite, its square is not
        (["--alpha", "1e-160"], "half_length"),
        # alpha pi/dx = 1e154 * 100.5, whose square the operator would form
        (["--alpha", "1e154", "--L", "1"], "alpha"),
    ], ids=["alpha_squared_overflow", "alpha_squared_underflow", "k_overflow",
            "nyquist_overflow", "dx_overflow", "nyquist_squared_overflow",
            "helmholtz_symbol_overflow"])
    def test_overflowing_derived_value_exits_2(self, tmp_path, capsys, flags, key):
        # finite settings whose derived alpha**2, lam, k, dx, pi/dx,
        # (pi/dx)**2 or (alpha pi/dx)**2 is not a positive finite number:
        # refused by the library objects, naming the key, before anything
        # is written
        out = tmp_path / "out"
        assert main(["criterion", "--N", "64", "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "criterion", "lemmas", "sweep"])
    @pytest.mark.parametrize("seed", [25.0, 20.0, -20.5])
    def test_seed_outside_domain_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                          command, seed):
        # the seeds are checked against [-L, L) with the rest of the set-up,
        # not by advect after the whole simulation
        def no_solve(*args, **kwargs):
            raise AssertionError("simulate was called")

        monkeypatch.setattr(cli, "simulate", no_solve)
        code, err = self.run(tmp_path, capsys, command, seeds=[0.0, seed],
                             sweep={"amplitudes": [1.0]})
        assert code == 2
        assert f"seed {seed} outside the domain [-20.0, 20.0)" in err

    @pytest.mark.parametrize("command", ["simulate", "criterion", "lemmas", "sweep"])
    def test_unusable_solver_exits_2_in_every_command(self, tmp_path, capsys, command):
        # criterion and lemmas never step, yet refuse what simulate and
        # sweep would refuse: one config is valid for every command or none
        for solver in ({"t_max": -1.0}, {"t_max": 1.0, "cfl": 2.0}, {"t_max": 1.0, "record_every": 0}):
            code, err = self.run(tmp_path, capsys, command, solver=solver, sweep={"amplitudes": [1.0]})
            assert code == 2 and "must be" in err, solver

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

    @pytest.mark.parametrize("command", ["simulate", "criterion", "lemmas", "sweep"])
    def test_bad_preset_argument_exits_2(self, tmp_path, capsys, command):
        code, err = self.run(
            tmp_path, capsys, command, sweep={"amplitudes": [1.0]},
            initial={"preset": "gaussian_derivative", "args": {"a": 1.0, "bogus": 2}},
        )
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("command", ["simulate", "criterion", "lemmas", "sweep"])
    def test_samples_file_next_to_preset_or_args_exits_2(self, tmp_path, capsys, command):
        # a readable file next to a preset or its arguments is two sources
        # for one datum: refused, naming the section, instead of the file
        # winning silently
        np.savetxt(tmp_path / "u0.txt", dg.make_grid(20.0, 1024).nodes)
        for mix, named in (({"preset": "sech_bump", "args": {"a": 5.0}}, "preset and args"),
                           ({"args": {"bogus": 1}}, "args")):
            code, err = self.run(tmp_path, capsys, command, sweep={"amplitudes": [1.0]},
                                 initial={"samples_file": str(tmp_path / "u0.txt"), **mix})
            assert code == 2 and f"initial gives samples_file and {named}" in err, mix


class TestSteepDatum:
    """u0'(0) = -1e200: the squares in the breaking-time bound overflow a
    float, yet every command finishes with the bound 2/|u0'(0)|, and the run
    stops at once on dt underflow."""

    @pytest.mark.parametrize("command", ["criterion", "simulate", "sweep"])
    def test_finite_bound(self, tmp_path, command):
        cfg = write_config(
            tmp_path,
            grid={"half_length": 20.0, "n_points": 256},
            initial={"preset": "gaussian_derivative", "args": {"a": 1e200}},
            sweep={"amplitudes": [1.0]},
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        if command == "criterion":
            bound = strict_json(out / "verdict.json")["verdict"]["time_bound"]
        elif command == "simulate":
            summary = strict_json(out / "summary.json")
            bound = summary["criterion"]["time_bound"]
            assert summary["blowup_report"]["trigger"] == "dt_underflow"
        else:
            row = dict(zip(cli.SWEEP_HEADER, (out / "sweep.csv").read_text().splitlines()[1].split(",")))
            bound = float(row["time_bound"])
            assert (row["trigger"], row["status"]) == ("dt_underflow", "ok")
        assert bound == pytest.approx(2e-200, rel=1e-12, abs=0.0)


class TestCommandsAgree:
    """criterion, simulate and sweep take one verdict from one dispatch: for
    the same datum they write the same criterion, and where it is not
    stated (dgh2 at gamma != 0) criterion exits 2 and the others leave it
    out."""

    @pytest.mark.parametrize("config, gamma", [
        ("breaking_run.yaml", None),
        ("two_component_vacuum.yaml", None),
        ("two_component_vacuum.yaml", 0.5),
    ])
    def test_same_verdict(self, tmp_path, capsys, config, gamma):
        raw = yaml.safe_load((ROOT / "configs" / config).read_text())
        raw["sweep"] = {"amplitudes": [0.5, 1.0]}
        cfg = tmp_path / config
        cfg.write_text(yaml.safe_dump(raw))
        flags = ["--N", "512", "--tmax", "0.05", "--workers", "1"]
        if gamma is not None:
            flags += ["--gamma", str(gamma)]
        outs = {c: tmp_path / c for c in ("criterion", "simulate", "sweep")}
        codes = {c: main([c, "--config", str(cfg), "--out", str(o), *flags]) for c, o in outs.items()}
        summary = strict_json(outs["simulate"] / "summary.json")
        lines = (outs["sweep"] / "sweep.csv").read_text().splitlines()
        row = next(r for r in (dict(zip(cli.SWEEP_HEADER, line.split(","))) for line in lines[1:])
                   if float(r["amplitude"]) == 1.0)
        cells = [row[k] for k in ("holds", "margin", "time_bound")]
        if gamma is None:
            assert codes == {"criterion": 0, "simulate": 0, "sweep": 0}
            verdict = strict_json(outs["criterion"] / "verdict.json")["verdict"]
            assert summary["criterion"] == verdict
            assert cells == [str(verdict["holds"]).lower(), format(verdict["margin"], ".17g"),
                             format(verdict["time_bound"], ".17g")]
        else:
            assert codes == {"criterion": 2, "simulate": 0, "sweep": 0}
            assert not outs["criterion"].exists()
            assert "requires gamma = 0" in capsys.readouterr().err
            assert summary["criterion"] is None
            assert cells == ["", "", ""]


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
    """README's command-line and config sections name what cli accepts,
    and its Library code runs as written."""

    def test_library_block_runs_verbatim(self):
        text = (ROOT / "README.md").read_text()
        block = re.search(r"^## Library\n\n```python\n(.*?)```", text, re.S | re.M).group(1)
        scope = {}
        exec(compile(block, "README.md", "exec"), scope)
        assert scope["verdict"].holds and scope["report"].blew_up
        assert scope["path"].x0 == scope["verdict"].x0_best

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

    def test_lemmas_report_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, lemmas={"n_random": 6, "resolutions": [512, 1024]})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["lemmas", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
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
