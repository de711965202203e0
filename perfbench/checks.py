"""Output checks for every benchmark operation.

Each check compares a file the command wrote with a value the benchmark
derives on its own from the generating formula of the input: the datum
u0(x) = -a (x - c) exp(-(x - c)^2 / 2), optionally with
rho~0(x) = -exp(-(x - c)^2).  A check returns the names of the checks
that failed; the names are the per-check counters of the traced run.

Tolerances are the ones the package's acceptance gate states: E drift
1e-6, momentum and density residuals 1e-5 on the resolved window
(q_x >= 0.1, and >= 0.2 for the density), criterion point 1e-9 and
bound 1e-8 for the steepness family, inequality witness order 1.5.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

E_DRIFT_TOL = 1e-6
RESIDUAL_TOL = 1e-5
MOMENTUM_QX_FLOOR = 0.1
DENSITY_QX_FLOOR = 0.2
X0_TOL = 1e-9
BOUND_ABS_TOL = 1e-8
BOUND_REL_TOL = 1e-6
WITNESS_ORDER_MIN = 1.5

CHECK_NAMES = (
    "cli.exit_nonzero",
    "cli.output_missing",
    "cli.schema_invalid",
    "cli.output_mismatch",
    "cli.cell_errors",
    "cli.sweep_csv_mismatch",
    "evolution.trigger_mismatch",
    "evolution.bound_violations",
    "evolution.energy_drift",
    "characteristics.momentum_residual",
    "characteristics.density_residual",
    "analysis.criterion_mismatch",
    "analysis.lemmas_failed",
    "analysis.witness_order_low",
)


# -- generating formula ---------------------------------------------------

def datum(a: float, s: float) -> tuple[float, float, float]:
    """(u, u_x, u_xx) of -a s exp(-s^2/2) at s = x - c."""
    g = math.exp(-0.5 * s * s)
    return -a * s * g, -a * (1.0 - s * s) * g, a * (3.0 * s - s**3) * g


def analytic_criterion(a: float, k: float, alpha: float = 1.0) -> tuple[bool, float | None]:
    """(holds, time bound) of the local criterion for the datum of
    amplitude a: minimise alpha u0' + |u0 + k| by a scan and a
    golden-section refinement on the closed form."""
    def margin(s: float) -> float:
        u, ux, _ = datum(a, s)
        return alpha * ux + abs(u + k)

    step = 2e-3
    best = min((i * step for i in range(-3000, 3001)), key=margin)
    lo, hi = best - step, best + step
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        m1 = hi - inv * (hi - lo)
        m2 = lo + inv * (hi - lo)
        if margin(m1) < margin(m2):
            hi = m2
        else:
            lo = m1
    s0 = min((lo, hi, best), key=margin)
    if margin(s0) >= 0.0:
        return False, None
    u, ux, _ = datum(a, s0)
    return True, 2.0 / math.sqrt(ux * ux - ((u + k) / alpha) ** 2)


# -- file readers -----------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def columns(path: Path) -> dict[str, list[float]]:
    header, rows = read_csv(path)
    return {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}


def load_schema(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "dghlab" / "schemas" / name).read_text())


def schema_ok(payload: dict, schema: dict) -> bool:
    import jsonschema

    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError:
        return False
    return True


def resolved(qx: list[float], n_pre: int, floor: float) -> int:
    """Leading pre-detection records with q_x >= floor (the package's
    resolved window)."""
    for i in range(min(n_pre, len(qx))):
        if qx[i] < floor:
            return i
    return min(n_pre, len(qx))


# -- per-command checks ---------------------------------------------------

def check_simulate(out: Path, spec: dict, schema: dict) -> tuple[list[str], dict]:
    """Checks of one ``simulate`` command.  ``spec`` holds the generated
    a, c and equation.  Returns (failed checks, observations)."""
    failed: list[str] = []
    obs = {"units": 0, "side_residual_max": 0.0, "side_exceed": 0}
    try:
        summary = json.loads((out / "summary.json").read_text())
        traj = columns(out / "trajectory.csv")
        chars = [(m, columns(out / m["file"])) for m in summary["outputs"]["characteristics"]]
    except (OSError, KeyError, ValueError, IndexError):
        return ["cli.output_missing"], obs
    obs["units"] = int(summary["n_records"])
    if not schema_ok(summary, schema):
        failed.append("cli.schema_invalid")

    a, c = spec["a"], spec["c"]
    bound = 2.0 / a
    rep = summary["blowup_report"]
    if rep["trigger"] != "slope_threshold" or not rep["blew_up"]:
        failed.append("evolution.trigger_mismatch")
    if rep["t_detect"] is None or not rep["t_detect"] < bound:
        failed.append("evolution.bound_violations")

    # the last record is the detection record; the rest precede it
    n_pre = summary["n_records"] - 1
    energy = traj["E"][:n_pre]
    if not energy or (max(energy) - min(energy)) / abs(energy[0]) >= E_DRIFT_TOL:
        failed.append("evolution.energy_drift")

    verdict = summary["criterion"]
    if (
        verdict is None
        or verdict["holds"] is not True
        or abs(verdict["x0_best"] - c) > X0_TOL
        or verdict["time_bound"] is None
        or abs(verdict["time_bound"] - bound) > BOUND_ABS_TOL
        or (spec["equation"] == "dgh2" and verdict["rho_condition_met"] is not True)
    ):
        failed.append("analysis.criterion_mismatch")

    # identities: the package states them along the collapsing path (the
    # first seed, at the criterion point) on its resolved window; the side
    # paths are recorded as observations, see README.md
    for i, (meta, path) in enumerate(chars):
        u0, _, uxx0 = datum(a, meta["seed"] - c)
        scale = max(1.0, abs(u0 - uxx0))
        n_mom = resolved(path["qx"], n_pre, MOMENTUM_QX_FLOOR)
        mom = max((abs(r) for r in path["mom_res"][:n_mom]), default=0.0) / scale
        if i > 0:
            obs["side_residual_max"] = max(obs["side_residual_max"], mom)
            obs["side_exceed"] += int(mom >= RESIDUAL_TOL)
            continue
        if n_mom == 0 or mom >= RESIDUAL_TOL:
            failed.append("characteristics.momentum_residual")
        if "rho_res" in path:
            n_rho = resolved(path["qx"], n_pre, DENSITY_QX_FLOOR)
            rho = max((abs(r) for r in path["rho_res"][:n_rho]), default=0.0)
            if n_rho == 0 or rho >= RESIDUAL_TOL:
                failed.append("characteristics.density_residual")
    return failed, obs


def check_sweep(out: Path, spec: dict) -> tuple[list[str], dict]:
    """Checks of one ``sweep`` command: every row ok; the verdict of every
    cell matches the analytic one; every holding cell whose bound lies
    inside the horizon blew up before it, and no cell blew up after its
    bound."""
    failed: list[str] = []
    obs = {"units": 0}
    try:
        header, rows = read_csv(out / "sweep.csv")
    except (OSError, IndexError):
        return ["cli.output_missing"], obs
    col = {name: i for i, name in enumerate(header)}
    expected = [(amp, c0, gamma) for c0, gamma in spec["pairs"] for amp in spec["amplitudes"]]
    if len(rows) != len(expected):
        failed.append("cli.output_mismatch")
    obs["units"] = len(rows)
    for row, (amp, c0, gamma) in zip(rows, expected):
        if row[col["status"]] != "ok":
            failed.append("cli.cell_errors")
            continue
        holds, bound = analytic_criterion(amp, 0.5 * (c0 + gamma))
        if (row[col["holds"]] == "true") != holds or (
            holds and abs(float(row[col["time_bound"]]) - bound) > BOUND_REL_TOL * bound
        ):
            failed.append("analysis.criterion_mismatch")
        blew_up = row[col["blew_up"]] == "true"
        if holds and bound < spec["t_max"] and not blew_up:
            failed.append("evolution.bound_violations")
        if holds and blew_up and not float(row[col["t_detect"]]) < bound:
            failed.append("evolution.bound_violations")
    return sorted(set(failed)), obs


def check_lemmas(out: Path, spec: dict, schema: dict) -> tuple[list[str], dict]:
    """Checks of one ``lemmas`` command: schema, ``passed``, witness order
    and that every requested field was checked."""
    failed: list[str] = []
    obs = {"units": 0}
    try:
        report = json.loads((out / "lemmas_report.json").read_text())
    except (OSError, ValueError):
        return ["cli.output_missing"], obs
    if not schema_ok(report, schema):
        failed.append("cli.schema_invalid")
    obs["units"] = len(report.get("fields", {}))
    if report.get("n_random_fields") != spec["n_random"] or obs["units"] != spec["n_random"] + 4:
        failed.append("cli.output_mismatch")
    if report.get("passed") is not True:
        failed.append("analysis.lemmas_failed")
    order = report.get("peakon_witness_study", {}).get("equality_region_order")
    if not isinstance(order, (int, float)) or not order >= WITNESS_ORDER_MIN:
        failed.append("analysis.witness_order_low")
    return failed, obs
