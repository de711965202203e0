"""Command-line front end: simulate, criterion, lemmas, sweep.

Configuration lives in one YAML file (nested sections mirroring the
library objects); command-line flags override file values.  load_config
reads, converts and cross-checks the config; main builds the run's
parameters, grid, solver and initial state once, each checking its own
values, checks the seeds and hands the objects to the command, so every
command refuses a config no run could use before it writes anything.
All file outputs are deterministic for a fixed config and RNG seed:
floats are written with 17 significant digits (round-trip exact), JSON
keys are sorted, and wall-clock timing goes to stderr only.  JSON files
are standard JSON: a non-finite float (a slope of -inf, the witness
order of one resolution) is written as null; CSV cells keep inf and nan.
The lemma suite's random fields and witness study come from analysis.

Exit codes: 0 run completed (breaking is a result, not a failure),
1 property-suite violation (lemmas), 2 usage or configuration error (an
unknown config key, a value that does not convert, from the file or a
flag, initial data that cannot be built or that names two sources, a
seed outside the domain, an out_dir that cannot be a directory),
including a ValueError raised in a sweep cell.  A sweep cell that stops
on a numerical breakdown (ArithmeticError, e.g. an overflow) is a result
and is written to its row; any other exception in a cell, or a sweep
worker process that dies, fails the command with a RuntimeError naming
the cell, and the interpreter exits non-zero with its traceback.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, field as dc_field, replace
from functools import partial
from itertools import product
from operator import attrgetter
from pathlib import Path

import numpy as np
import yaml

from .analysis import (
    CriterionVerdict,
    check_criterion_dgh,
    check_criterion_dgh2,
    full_kernel_gap,
    gap_minimum,
    one_sided_gaps,
    peakon_witness_study,
    random_band_limited,
    sobolev_gap,
)
# advect and make_operator are kept for perfbench: its tracer wraps both
# names here, and setup_probe.py calls make_operator
from .characteristics import PathIntegrator, advect
from .core import Field, Grid, Parameters, State, as_float, as_int, ic_preset, make_grid, make_parameters
from .evolution import SolverConfig, simulate
from .helmholtz import NonlocalOperator, make_operator

__all__ = ["RunConfig", "load_config", "main", "cmd_simulate", "cmd_criterion",
           "cmd_lemmas", "cmd_sweep"]

GAP_TOLERANCE = 1e-8
# libyaml's safe loader where PyYAML was built with it: it builds the same
# objects as the pure-Python SafeLoader, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _fmt(x) -> str:
    """A CSV cell: a number as a float with 17 significant digits (round-trip
    exact and bit-stable across runs), bools as true/false, None empty."""
    if not isinstance(x, float):
        if x is None:
            return ""
        if isinstance(x, bool):
            return str(x).lower()
        if isinstance(x, str):
            return x.replace(",", ";")
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        x = float(x)
    return format(x, ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    # an array's rows as Python floats: one .tolist() in place of a numpy
    # scalar per cell
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_quote = json.encoder.encode_basestring_ascii
_float_text = float.__repr__


def _json(x, pad: str) -> str:
    """The text json.dumps(x, indent=2, sort_keys=True) gives, with null for
    every non-finite float; ``pad`` is a newline and the indent of x's line.
    A tuple is written as a list.  Dict keys must be strings, as every
    payload's are; another key, or a value json refuses (a numpy integer or
    bool, a set), raises TypeError.  One join per dict or list; a finite
    float item, the common leaf, is written in place, without a call."""
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        items = [f"{_quote(k)}: "
                 f"{_float_text(v) if type(v) is float and math.isfinite(v) else _json(v, inner)}"
                 for k, v in sorted(x.items())]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        items = [_float_text(v) if type(v) is float and math.isfinite(v) else _json(v, inner)
                 for v in x]
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, float):
        return _float_text(x) if math.isfinite(x) else "null"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    """Standard JSON (RFC 8259) in json.dump's layout with indent=2 and
    sort_keys=True, ASCII-escaped: a NaN or an infinity is written as null.
    A payload that does not encode raises before the file is opened."""
    text = _json(payload, "\n") + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
        try:
            if "samples_file" in spec:
                vals = np.loadtxt(spec["samples_file"], dtype=float)
                return ic_preset("from_samples", grid, params, values=vals)
            return ic_preset(spec["preset"], grid, params, **spec.get("args", {}))
        except (TypeError, ValueError, OSError) as exc:
            raise ConfigError(f"cannot build the initial data: {type(exc).__name__}: {exc}") from exc

    def initial_state(self, grid: Grid, params: Parameters) -> State:
        u0 = self.build_field(self.initial, grid, params)
        rho0 = None if self.rho_initial is None else self.build_field(self.rho_initial, grid, params)
        return State(0.0, u0, rho0)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _count(value) -> int:
    """as_int(value), refusing negatives."""
    n = as_int(value)
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    return n


def _floats(value) -> list[float]:
    """as_float(v) of every item, refusing NaN and infinities."""
    out = [as_float(v) for v in value]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"expected finite numbers, got {out}")
    return out


_FIELD_KEYS = {"preset": _text, "args": dict, "samples_file": _text}

# Every key a config file may hold: a dict is a section whose own keys are
# checked, anything else converts the value.  The sections parameters,
# grid and solver are kept in RunConfig.sections; every other top-level
# key is the RunConfig attribute of the same name.
CONFIG_KEYS = {
    "equation": _text,
    "parameters": {"alpha": as_float, "gamma": as_float, "c0": as_float, "sigma": as_float},
    "grid": {"half_length": as_float, "n_points": as_int},
    "solver": {
        "t_max": as_float,
        "cfl": as_float,
        "dt_min": as_float,
        "slope_blowup_threshold": as_float,
        "record_every": as_int,
    },
    "initial": _FIELD_KEYS,
    "rho_initial": _FIELD_KEYS,
    "seeds": _floats,
    "out_dir": _text,
    "rng_seed": _count,
    "workers": as_int,
    "lemmas": {
        "n_random": _count,
        "n_modes": as_int,
        "max_mode": as_int,
        # each a grid size the witness study can build
        "resolutions": lambda v: [make_grid(1.0, as_int(n)).n_points for n in v],
    },
    "sweep": {
        "amplitudes": _floats,
        "c0_gamma": lambda v: [tuple(_floats((c, g))) for c, g in v],
    },
}

# Every flag that overrides a config value: flag -> (dotted config key,
# help), in the order --help lists them.  A flag's value is converted by
# the key's CONFIG_KEYS entry, as the file's value is.
FLAGS = {
    "out": ("out_dir", "output directory"),
    "seed": ("rng_seed", "RNG seed (randomized suites)"),
    "workers": ("workers", "sweep worker processes (default: min(cells, usable CPUs))"),
    "alpha": ("parameters.alpha", None),
    "gamma": ("parameters.gamma", None),
    "c0": ("parameters.c0", None),
    "L": ("grid.half_length", "domain half-length"),
    "N": ("grid.n_points", "number of grid points"),
    "tmax": ("solver.t_max", None),
    "cfl": ("solver.cfl", None),
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


def load_config(path: str | None, overrides: argparse.Namespace | None) -> RunConfig:
    """The run the file at ``path`` describes, with the flags set in
    ``overrides`` replacing its values key by key: read, converted and
    cross-checked; the library objects it describes are built by main."""
    cfg = RunConfig()
    raw = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = yaml.load(p.read_text(encoding="utf-8"), Loader=_YAML_LOADER) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
    flags = {}
    for flag, (dotted, _) in FLAGS.items():
        value = getattr(overrides, flag, None)
        if value is not None:
            *section, key = dotted.split(".")
            (flags.setdefault(section[0], {}) if section else flags)[key] = value
    for source in (raw, flags):
        for key, value in _convert(source, CONFIG_KEYS, "").items():
            if key in cfg.sections:
                cfg.sections[key].update(value)
            else:
                setattr(cfg, key, value)
    if cfg.equation not in ("dgh", "dgh2"):
        raise ConfigError(f"equation must be dgh or dgh2, got {cfg.equation!r}")
    if cfg.equation == "dgh" and cfg.rho_initial is not None:
        raise ConfigError("rho_initial is set, but equation dgh has no density")
    if cfg.equation == "dgh2" and cfg.rho_initial is None:
        raise ConfigError("equation dgh2 needs a rho_initial section")
    if cfg.workers is not None and cfg.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {cfg.workers}")
    for spec, name in ((cfg.initial, "initial"), (cfg.rho_initial, "rho_initial")):
        if spec is None:
            continue
        if "samples_file" not in spec and "preset" not in spec:
            raise ConfigError("initial condition needs 'preset' or 'samples_file'")
        mixed = [key for key in ("preset", "args") if key in spec]
        if "samples_file" in spec and mixed:
            raise ConfigError(f"{name} gives samples_file and {' and '.join(mixed)}: "
                              "name one source of the data")
    out = Path(cfg.out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"out_dir {cfg.out_dir!r} cannot be made: {existing} is not a directory")
    return cfg


def _criterion_for(state: State, params: Parameters) -> CriterionVerdict | None:
    if state.rho_tilde is None:
        return check_criterion_dgh(state.u, params)
    if params.gamma != 0.0:
        return None  # the two-component criterion is stated only for gamma = 0
    return check_criterion_dgh2(state.u, state.rho_tilde, params)


def cmd_simulate(cfg: RunConfig, params: Parameters, solver: SolverConfig, state: State) -> int:
    # each record goes into the path integrator and a trajectory.csv row as
    # simulate hands it over, so at most two records are alive at a time
    rows = []
    integrate = PathIntegrator(cfg.seeds, params)

    def take(record) -> None:
        rows.append((record.state.t, *astuple(record.diagnostics)))
        integrate(record)

    t0 = time.perf_counter()
    _, report = simulate(state, solver, params, take)
    wall = time.perf_counter() - t0
    paths = integrate.paths()

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trajectory.csv", ["t", "min_ux", "max_abs_u", "E", "F", "dt"], rows)

    char_meta = []
    for i, (x0, path) in enumerate(zip(cfg.seeds, paths)):
        name = f"characteristic_{i:03d}.csv"
        columns = [
            ("t", path.t), ("q", path.q), ("g", path.g), ("qx", path.qx),
            ("A_w", path.a_weighted), ("B_w", path.b_weighted),
            ("A_p", path.a_plain), ("B_p", path.b_plain), ("mom_res", path.momentum_res),
        ]
        if path.rho_res is not None:
            columns.append(("rho_res", path.rho_res))
        header, cols = zip(*columns)
        _write_csv(out / name, list(header), np.column_stack(cols))
        char_meta.append(
            {
                "seed": float(x0),
                "file": name,
                "truncated": path.truncated,
                "weight_overflow": path.weight_overflow,
            }
        )

    verdict = _criterion_for(state, params)
    grid = state.u.grid
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
        "n_records": len(rows),
        "outputs": {
            "trajectory_csv": "trajectory.csv",
            "characteristics": char_meta,
        },
    }
    _write_json(out / "summary.json", summary)
    print(
        f"{cfg.equation}: trigger={report.trigger}"
        + (f", t_detect={report.t_detect:.6g}" if report.t_detect is not None else "")
        + f", records={len(rows)} -> {out}"
    )
    print(f"wall time: {wall:.2f}s", file=sys.stderr)
    return 0


def cmd_criterion(cfg: RunConfig, params: Parameters, solver: SolverConfig, state: State) -> int:
    # where _criterion_for gives none, check_criterion_dgh2 raises its gamma = 0 message
    verdict = _criterion_for(state, params) or check_criterion_dgh2(state.u, state.rho_tilde, params)
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


def _gap_entries(grid: Grid, row: np.ndarray, samples: np.ndarray, alpha: float, k: float) -> dict:
    """Report entries of the field with rfft row ``row`` and samples
    ``samples`` at alpha and k, its quarter band formed once for all three."""
    band = grid.spectral.quarter_band(row)
    gm, gp = one_sided_gaps(grid, samples, band, alpha, k)
    return {
        "one_sided_minus": gap_minimum(gm, grid),
        "one_sided_plus": gap_minimum(gp, grid),
        "full_kernel": gap_minimum(full_kernel_gap((gm, gp)), grid),
        "sup_embedding": {"min_gap": sobolev_gap(grid, samples, band, alpha)},
    }


def _lemma_fields(grid: Grid, params: Parameters, rng: np.random.Generator,
                  n_random: int, n_modes: int, max_mode: int):
    """(name, rfft row, samples, k) of the lemma suite, made one at a time
    so that each field is freed once checked: the three smooth presets and
    the peakon witness at params.k, then n_random band-limited fields, each
    at its own k drawn before its row."""
    row_and_samples = attrgetter("spectrum", "values")
    for name in ("gaussian_bump", "gaussian_derivative", "sech_bump"):
        yield name, *row_and_samples(ic_preset(name, grid)), params.k
    yield ("peakon_witness",
           *row_and_samples(ic_preset("peakon_shifted", grid, params, c=1.0, y=0.0, k=params.k)),
           params.k)
    for i in range(n_random):
        k = float(rng.uniform(-1.0, 1.0))
        yield f"random_{i:03d}", *random_band_limited(rng, grid, n_modes, max_mode), k


def cmd_lemmas(cfg: RunConfig, params: Parameters, solver: SolverConfig, state: State) -> int:
    grid = state.u.grid
    lem = cfg.lemmas
    n_random = lem.get("n_random", 50)
    n_modes = lem.get("n_modes", 30)
    max_mode = lem.get("max_mode", 80)
    resolutions = lem.get("resolutions", [1024, 2048, 4096])
    # a mode above N/4 would be cut by the quarter band the gaps are
    # checked on, so the checked field would not be the drawn one
    if not 1 <= max_mode <= grid.spectral.quarter:
        raise ConfigError(
            f"lemmas.max_mode must lie in 1..N/4 = {grid.spectral.quarter}, got {max_mode}"
        )
    if n_modes < 1:
        # no mode draws the zero field, so no random field would be tested
        raise ConfigError(f"lemmas.n_modes must be at least 1, got {n_modes}")
    if not resolutions:
        raise ConfigError("lemmas.resolutions must name at least one grid size")
    rng = np.random.default_rng(cfg.rng_seed)

    fields = _lemma_fields(grid, params, rng, n_random, n_modes, max_mode)
    results = {name: _gap_entries(grid, row, samples, params.alpha, k) for name, row, samples, k in fields}
    worst = min(np.inf, *(e["min_gap"] for entry in results.values() for e in entry.values()))

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


def _sweep_cells(cfg: RunConfig, params: Parameters) -> list[tuple[int, float, Parameters]]:
    """(index, amplitude, parameters) of every cell: the (c0, gamma) pairs
    in order, each over all amplitudes, every other parameter as in params."""
    sw = cfg.sweep
    amplitudes = sw.get("amplitudes", [])
    pairs = sw.get("c0_gamma", [])
    if not amplitudes and not pairs:
        raise ConfigError("sweep needs a non-empty 'amplitudes' and/or 'c0_gamma' axis")
    cells = product(pairs or [(params.c0, params.gamma)], amplitudes or [1.0])
    return [(idx, amp, replace(params, c0=c0, gamma=gamma))
            for idx, ((c0, gamma), amp) in enumerate(cells)]


def _run_cell(solver: SolverConfig, base: State, cell: tuple[int, float, Parameters]) -> list:
    """One sweep row: the base datum scaled by the cell's amplitude, run at
    the cell's parameters.  A numerical breakdown is a result and goes in
    the row's status; any other exception propagates."""
    idx, amp, params = cell
    head = [idx, amp, params.c0, params.gamma, params.alpha]
    u0 = ic_preset("from_samples", base.u.grid, params, values=amp * base.u.values)
    state = State(0.0, u0, base.rho_tilde)
    try:
        v = _criterion_for(state, params)
        # a consumer that keeps no record: a cell's memory does not grow with its run
        _, report = simulate(state, solver, params, lambda record: None)
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


def cmd_sweep(cfg: RunConfig, params: Parameters, solver: SolverConfig, state: State) -> int:
    cells = _sweep_cells(cfg, params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    # every cell scales one datum: the initial data read only alpha, which no cell changes
    run = partial(_run_cell, solver, state)
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
        for flag, (_, text) in FLAGS.items():
            sp.add_argument(f"--{flag}", default=None, help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"simulate": cmd_simulate, "criterion": cmd_criterion,
               "lemmas": cmd_lemmas, "sweep": cmd_sweep}[args.command]
    try:
        cfg = load_config(args.config, args)
        # each object checks its own values, the operator its Helmholtz symbols
        params, grid, solver = cfg.parameters(), cfg.grid(), cfg.solver()
        NonlocalOperator(grid, params.alpha)
        state = cfg.initial_state(grid, params)
        L = grid.half_length
        for x in cfg.seeds:
            if not -L <= x < L:
                raise ConfigError(f"seed {x} outside the domain [-{L}, {L})")
        return command(cfg, params, solver, state)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
