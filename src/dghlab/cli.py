"""Command-line front end: simulate, criterion, lemmas, sweep.

Configuration lives in one YAML file (nested sections mirroring the
library objects); command-line flags override file values.  All file
outputs are deterministic for a fixed config and RNG seed: floats are
written with 17 significant digits (round-trip exact), JSON keys are
sorted, and wall-clock timing goes to stderr only.  JSON files are
standard JSON: a non-finite float (a slope of -inf, the witness order of
one resolution) is written as null; CSV cells keep inf and nan.  The
lemma suite's random fields and witness study come from analysis.

Exit codes: 0 run completed (breaking is a result, not a failure),
1 property-suite violation (lemmas), 2 usage or configuration error (an
unknown config key, a value that does not convert, initial data that
cannot be built), including a ValueError raised in a sweep cell.  A
sweep cell that stops on a numerical breakdown (ArithmeticError, e.g. an
overflow) is a result and is written to its row; any other exception in
a cell, or a sweep worker process that dies, fails the command with a
RuntimeError naming the cell, and the interpreter exits non-zero with
its traceback.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np
import yaml

from .analysis import (
    CriterionVerdict,
    check_criterion_dgh,
    check_criterion_dgh2,
    full_kernel_gap,
    one_sided_gaps,
    peakon_witness_study,
    random_band_limited,
    sobolev_gap,
)
from .characteristics import advect
from .core import Field, Grid, Parameters, State, ic_preset, make_grid, make_parameters
from .evolution import SolverConfig, Trajectory, simulate
from .helmholtz import NonlocalOperator, make_operator

__all__ = ["RunConfig", "load_config", "main", "cmd_simulate", "cmd_criterion",
           "cmd_lemmas", "cmd_sweep"]

GAP_TOLERANCE = 1e-8


def _fmt(x) -> str:
    """17 significant digits: round-trip exact and bit-stable across runs."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, str):
        return x.replace(",", ";")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _finite_or_null(x):
    """The payload x with every non-finite float replaced by None."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _write_json(path: Path, payload: dict) -> None:
    """Standard JSON (RFC 8259): a NaN or an infinity is written as null."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything needed to set up one run; mirrors the YAML layout."""

    equation: str = "dgh"
    # the keys of the parameters, grid and solver sections that the file
    # or a flag set; every other key takes the library object's default
    sections: dict = dc_field(default_factory=lambda: {"parameters": {}, "grid": {}, "solver": {}})
    initial: dict = dc_field(default_factory=lambda: {"preset": "gaussian_derivative", "args": {"a": 1.0}})
    rho_initial: dict | None = None
    seeds: list[float] = dc_field(default_factory=lambda: [0.0])
    out_dir: str = "out"
    rng_seed: int = 2024
    workers: int | None = None  # sweep processes; None: min(cells, usable CPUs)
    lemmas: dict = dc_field(default_factory=dict)
    sweep: dict = dc_field(default_factory=dict)

    # The four defaults below are the arguments the library objects leave
    # without one: alpha 1, n_points 4096, half_length 20*alpha, t_max 2.
    def parameters(self) -> Parameters:
        return make_parameters(**{"alpha": 1.0, **self.sections["parameters"]})

    def grid(self) -> Grid:
        alpha = self.sections["parameters"].get("alpha", 1.0)
        return make_grid(**{"half_length": 20.0 * alpha, "n_points": 4096, **self.sections["grid"]})

    def solver(self) -> SolverConfig:
        return SolverConfig(**{"t_max": 2.0, **self.sections["solver"]})

    def build_field(self, spec: dict, grid: Grid, params: Parameters) -> Field:
        if "samples_file" not in spec and "preset" not in spec:
            raise ConfigError("initial condition needs 'preset' or 'samples_file'")
        try:
            if "samples_file" in spec:
                vals = np.loadtxt(spec["samples_file"], dtype=float)
                return ic_preset("from_samples", grid, params, values=vals)
            return ic_preset(spec["preset"], grid, params, **spec.get("args", {}))
        except (TypeError, ValueError, OSError) as exc:
            raise ConfigError(f"cannot build the initial data: {type(exc).__name__}: {exc}") from exc

    def initial_state(self, grid: Grid, params: Parameters) -> State:
        u0 = self.build_field(self.initial, grid, params)
        rho0 = None
        if self.equation == "dgh2":
            if self.rho_initial is None:
                raise ConfigError("equation dgh2 needs a rho_initial section")
            rho0 = self.build_field(self.rho_initial, grid, params)
        return State(0.0, u0, rho0)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _integer(value) -> int:
    """int(value), refusing what int() would truncate: bools and floats
    with a fractional part (or no finite value)."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _floats(value) -> list[float]:
    return [float(v) for v in value]


_FIELD_KEYS = {"preset": _text, "args": dict, "samples_file": _text}

# Every key a config file may hold: a dict is a section whose own keys are
# checked, anything else converts the value.  The sections parameters,
# grid and solver are kept in RunConfig.sections; every other top-level
# key is the RunConfig attribute of the same name.
CONFIG_KEYS = {
    "equation": _text,
    "parameters": {"alpha": float, "gamma": float, "c0": float, "sigma": float},
    "grid": {"half_length": float, "n_points": _integer},
    "solver": {
        "t_max": float,
        "cfl": float,
        "dt_min": float,
        "slope_blowup_threshold": float,
        "record_every": _integer,
    },
    "initial": _FIELD_KEYS,
    "rho_initial": _FIELD_KEYS,
    "seeds": _floats,
    "out_dir": _text,
    "rng_seed": _integer,
    "workers": _integer,
    "lemmas": {
        "n_random": _integer,
        "n_modes": _integer,
        "max_mode": _integer,
        "resolutions": lambda v: [_integer(n) for n in v],
    },
    "sweep": {
        "amplitudes": _floats,
        "c0_gamma": lambda v: [(float(c), float(g)) for c, g in v],
    },
}

# Every flag that overrides a config value: flag -> (section, or None for
# a top-level key; key; type; help), in the order --help lists them.
FLAGS = {
    "out": (None, "out_dir", str, "output directory"),
    "seed": (None, "rng_seed", int, "RNG seed (randomized suites)"),
    "workers": (None, "workers", int, "sweep worker processes (default: min(cells, usable CPUs))"),
    "alpha": ("parameters", "alpha", float, None),
    "gamma": ("parameters", "gamma", float, None),
    "c0": ("parameters", "c0", float, None),
    "L": ("grid", "half_length", float, "domain half-length"),
    "N": ("grid", "n_points", int, "number of grid points"),
    "tmax": ("solver", "t_max", float, None),
    "cfl": ("solver", "cfl", float, None),
}


def _convert(raw, keys: dict, path: str) -> dict:
    """The values of the mapping ``raw`` converted by the table ``keys``;
    an unknown key or a failed conversion is a ConfigError naming its
    dotted path."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'} must be a mapping")
    out = {}
    for key, value in raw.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in keys:
            raise ConfigError(f"unknown config key {where}")
        conv = keys[key]
        if isinstance(conv, dict):
            out[key] = _convert(value, conv, where)
            continue
        try:
            out[key] = conv(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {where}: {value!r} ({exc})") from exc
    return out


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = yaml.safe_load(p.read_text(encoding="utf-8")) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        for key, value in _convert(raw, CONFIG_KEYS, "").items():
            if key in cfg.sections:
                cfg.sections[key] = value
            else:
                setattr(cfg, key, value)
    for flag, (section, key, _, _) in FLAGS.items():
        value = getattr(overrides, flag, None)
        if value is None:
            continue
        if section is None:
            setattr(cfg, key, value)
        else:
            cfg.sections[section][key] = value
    if cfg.equation not in ("dgh", "dgh2"):
        raise ConfigError(f"equation must be dgh or dgh2, got {cfg.equation!r}")
    if cfg.equation == "dgh" and cfg.rho_initial is not None:
        raise ConfigError("rho_initial is set, but equation dgh has no density")
    if cfg.workers is not None and cfg.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {cfg.workers}")
    return cfg


def _criterion_for(equation: str, state: State, params: Parameters) -> CriterionVerdict | None:
    if equation == "dgh":
        return check_criterion_dgh(state.u, params)
    if params.gamma != 0.0:
        return None  # the two-component criterion is stated only for gamma = 0
    assert state.rho_tilde is not None
    return check_criterion_dgh2(state.u, state.rho_tilde, params)


def _write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    rows = (
        (
            r.state.t,
            r.diagnostics.min_ux,
            r.diagnostics.max_abs_u,
            r.diagnostics.energy_e,
            r.diagnostics.energy_f,
            r.diagnostics.dt,
        )
        for r in traj.records
    )
    _write_csv(path, ["t", "min_ux", "max_abs_u", "E", "F", "dt"], rows)


def cmd_simulate(cfg: RunConfig) -> int:
    params = cfg.parameters()
    grid = cfg.grid()
    state = cfg.initial_state(grid, params)
    solver = cfg.solver()

    t0 = time.perf_counter()
    traj, report = simulate(state, solver, params)
    wall = time.perf_counter() - t0
    # before any file is written: a seed outside the domain fails here
    # and leaves no partial output
    paths = advect(traj, cfg.seeds, params)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(out / "trajectory.csv", traj)

    two = state.rho_tilde is not None
    header = ["t", "q", "g", "qx", "A_w", "B_w", "A_p", "B_p", "mom_res"]
    if two:
        header.append("rho_res")
    char_meta = []
    for i, (x0, path) in enumerate(zip(cfg.seeds, paths)):
        name = f"characteristic_{i:03d}.csv"
        cols = [
            path.t, path.q, path.g, path.qx, path.a_weighted, path.b_weighted,
            path.a_plain, path.b_plain, path.momentum_res,
        ]
        if two:
            cols.append(path.rho_res)
        _write_csv(out / name, header, np.column_stack(cols))
        char_meta.append(
            {
                "seed": float(x0),
                "file": name,
                "truncated": path.truncated,
                "weight_overflow": path.weight_overflow,
            }
        )

    verdict = _criterion_for(cfg.equation, state, params)
    summary = {
        "equation": cfg.equation,
        "parameters": asdict(params),
        "grid": {"half_length": grid.half_length, "n_points": grid.n_points, "dx": grid.dx},
        "solver": asdict(solver),
        "initial": cfg.initial,
        "rho_initial": cfg.rho_initial,
        "seeds": [float(s) for s in cfg.seeds],
        "blowup_report": asdict(report),
        "criterion": asdict(verdict) if verdict is not None else None,
        "n_records": len(traj.records),
        "outputs": {
            "trajectory_csv": "trajectory.csv",
            "characteristics": char_meta,
        },
    }
    _write_json(out / "summary.json", summary)
    print(
        f"{cfg.equation}: trigger={report.trigger}"
        + (f", t_detect={report.t_detect:.6g}" if report.t_detect is not None else "")
        + f", records={len(traj.records)} -> {out}"
    )
    print(f"wall time: {wall:.2f}s", file=sys.stderr)
    return 0


def cmd_criterion(cfg: RunConfig) -> int:
    params = cfg.parameters()
    grid = cfg.grid()
    state = cfg.initial_state(grid, params)
    verdict = _criterion_for(cfg.equation, state, params)
    if verdict is None:
        raise ConfigError(f"the dgh2 criterion requires gamma = 0; got gamma = {params.gamma}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "equation": cfg.equation,
        "parameters": asdict(params),
        "verdict": asdict(verdict),
    }
    _write_json(out / "verdict.json", payload)
    line = (
        f"criterion holds={verdict.holds} x0={verdict.x0_best:.6g} "
        f"margin={verdict.margin:.6g}"
    )
    if verdict.time_bound is not None:
        line += f" time_bound={verdict.time_bound:.6g}"
    print(line)
    return 0


def _gap_entries(u: Field, op: NonlocalOperator, params: Parameters) -> dict:
    gm, gp = one_sided_gaps(u, op, params)
    fk = full_kernel_gap(u, op, params, (gm, gp))
    return {
        "one_sided_minus": {"min_gap": gm.min_gap, "argmin_x": gm.argmin_x},
        "one_sided_plus": {"min_gap": gp.min_gap, "argmin_x": gp.argmin_x},
        "full_kernel": {"min_gap": fk.min_gap, "argmin_x": fk.argmin_x},
        "sup_embedding": {"min_gap": sobolev_gap(u, params)},
    }


def _lemma_fields(grid: Grid, params: Parameters, rng: np.random.Generator,
                  n_random: int, n_modes: int, max_mode: int):
    """(name, field, parameters) of the lemma suite, built one at a time so
    that a field and its cached quarter band are freed once checked: the
    three smooth presets, the peakon witness, then n_random band-limited
    fields, each at its own k drawn before its samples."""
    for name in ("gaussian_bump", "gaussian_derivative", "sech_bump"):
        yield name, ic_preset(name, grid), params
    yield ("peakon_witness",
           ic_preset("peakon_shifted", grid, params, c=1.0, y=0.0, k=params.k), params)
    for i in range(n_random):
        kv = float(rng.uniform(-1.0, 1.0))
        pk = make_parameters(params.alpha, 0.0, 2.0 * kv, params.sigma)
        vals = random_band_limited(rng, grid, n_modes, max_mode)
        yield f"random_{i:03d}", ic_preset("from_samples", grid, values=vals), pk


def cmd_lemmas(cfg: RunConfig) -> int:
    params = cfg.parameters()
    grid = cfg.grid()
    lem = cfg.lemmas
    n_random = lem.get("n_random", 50)
    n_modes = lem.get("n_modes", 30)
    max_mode = lem.get("max_mode", 80)
    resolutions = lem.get("resolutions", [1024, 2048, 4096])
    # a mode above N/4 would be cut by the quarter band the gaps are
    # checked on, so the checked field would not be the drawn one
    if not 1 <= max_mode <= grid.n_points // 4:
        raise ConfigError(
            f"lemmas.max_mode must lie in 1..N/4 = {grid.n_points // 4}, got {max_mode}"
        )
    if n_modes < 1:
        # no mode draws the zero field, so no random field would be tested
        raise ConfigError(f"lemmas.n_modes must be at least 1, got {n_modes}")
    if not resolutions:
        raise ConfigError("lemmas.resolutions must name at least one grid size")
    if n_random < 0:
        raise ConfigError(f"lemmas.n_random must be at least 0, got {n_random}")
    op = make_operator(grid, params)
    rng = np.random.default_rng(cfg.rng_seed)

    results = {}
    worst = np.inf
    for name, u, pars in _lemma_fields(grid, params, rng, n_random, n_modes, max_mode):
        entry = _gap_entries(u, op, pars)
        results[name] = entry
        worst = min(worst, *(e["min_gap"] for e in entry.values()))

    witness = peakon_witness_study(params, resolutions)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ok = worst >= -GAP_TOLERANCE
    payload = {
        "parameters": asdict(params),
        "rng_seed": cfg.rng_seed,
        "gap_tolerance": GAP_TOLERANCE,
        "n_random_fields": n_random,
        "fields": results,
        "peakon_witness_study": witness,
        "worst_min_gap": worst,
        "passed": ok,
    }
    _write_json(out / "lemmas_report.json", payload)
    print(f"inequality suite over {len(results)} fields: worst min gap = {worst:.3e}")
    print(
        "peakon witness: gap(peak) at finest = "
        f"{witness['levels'][-1]['gap_at_peak']:.3e}, equality-region gap = "
        f"{witness['levels'][-1]['gap_equality_region']:.3e}, order = "
        f"{witness['equality_region_order']:.2f}"
    )
    if not ok:
        print(f"FAIL: min gap {worst:.3e} below -{GAP_TOLERANCE:.0e}", file=sys.stderr)
        return 1
    return 0


def _sweep_cells(cfg: RunConfig) -> list[tuple[int, float, Parameters]]:
    """(index, amplitude, parameters) of every cell: the (c0, gamma) pairs
    in order, each over all amplitudes, the other parameters the config's."""
    params = cfg.parameters()
    sw = cfg.sweep
    amplitudes = sw.get("amplitudes", [])
    pairs = sw.get("c0_gamma", [])
    if not amplitudes and not pairs:
        raise ConfigError("sweep needs a non-empty 'amplitudes' and/or 'c0_gamma' axis")
    cells = product(pairs or [(params.c0, params.gamma)], amplitudes or [1.0])
    return [(idx, amp, replace(params, c0=c0, gamma=gamma))
            for idx, ((c0, gamma), amp) in enumerate(cells)]


def _run_cell(equation: str, solver: SolverConfig, base: State,
              cell: tuple[int, float, Parameters]) -> list:
    """One sweep row: the base datum scaled by the cell's amplitude, run at
    the cell's parameters.  A numerical breakdown is a result and goes in
    the row's status; any other exception propagates."""
    idx, amp, params = cell
    head = [idx, amp, params.c0, params.gamma, params.alpha]
    u0 = ic_preset("from_samples", base.u.grid, params, values=amp * base.u.values)
    state = State(0.0, u0, base.rho_tilde)
    try:
        v = _criterion_for(equation, state, params)
        _, report = simulate(state, solver, params)
    except ArithmeticError as exc:
        return head + ["", "", "", "", "", "", "", f"error: {type(exc).__name__}: {exc}"]
    return head + [
        v.holds if v else "", v.margin if v else "",
        v.time_bound if v else "",
        report.blew_up, report.trigger, report.t_detect,
        report.min_slope_at_detect, "ok",
    ]


def _collect(cells: list[tuple[int, float, Parameters]], results) -> list[list]:
    """The rows of ``results`` (an iterator in cell order).  A cell that
    raises fails the sweep with its index in the message; a pool's ``map``
    cancels the cells still pending when its iterator raises."""
    rows = []
    for idx, *_ in cells:
        try:
            rows.append(next(results))
        except ValueError as exc:
            raise ValueError(f"sweep cell {idx}: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"sweep cell {idx}: {type(exc).__name__}: {exc}") from exc
    return rows


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


SWEEP_HEADER = [
    "index", "amplitude", "c0", "gamma", "alpha", "holds", "margin",
    "time_bound", "blew_up", "trigger", "t_detect", "min_slope_at_detect",
    "status",
]


def cmd_sweep(cfg: RunConfig) -> int:
    cells = _sweep_cells(cfg)
    # grid, solver and data depend only on alpha, the same in every cell:
    # built once here, a bad preset is a configuration error, not a row
    grid = cfg.grid()
    solver = cfg.solver()
    base = cfg.initial_state(grid, cells[0][2])
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    run = partial(_run_cell, cfg.equation, solver, base)
    workers = min(len(cells), cfg.workers or _usable_cpus())
    if workers == 1:
        rows = _collect(cells, map(run, cells))
    else:
        # imported here: every command imports this module, only sweep
        # needs the process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = _collect(cells, pool.map(run, cells))
    _write_csv(out / "sweep.csv", SWEEP_HEADER, rows)
    print(f"sweep: {len(rows)} cells -> {out / 'sweep.csv'}")
    print(f"wall time: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgh-lab",
        description="Numerical laboratory for wave breaking in the DGH equation "
        "and its two-component system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("simulate", "run one simulation and write trajectory/characteristics/summary"),
        ("criterion", "evaluate the local breaking criterion on the initial datum"),
        ("lemmas", "verify the sharp convolution/embedding inequalities"),
        ("sweep", "run a parameter sweep and write one CSV row per cell"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", type=str, default=None, help="YAML config file")
        for flag, (_, _, type_, text) in FLAGS.items():
            sp.add_argument(f"--{flag}", type=type_, default=None, help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"simulate": cmd_simulate, "criterion": cmd_criterion,
               "lemmas": cmd_lemmas, "sweep": cmd_sweep}[args.command]
    try:
        return command(load_config(args.config, args))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
