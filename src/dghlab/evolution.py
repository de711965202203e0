"""Pseudospectral time integration of the nonlocal transport form.

One-component:   u_t + (u + lam) u_x = -d_x p * (a2/2 u_x^2 + u^2 + 2k u)
Two-component:   the same u equation with 1/2 rho~^2 + rho~ added under the
convolution, coupled to  rho~_t + u rho~_x = -u_x rho~ - u_x.

Quadratic products are dealiased with the 2/3 rule before entering any
Fourier multiplier.  Time stepping is Lawson RK4 (RK4 on the integrating
factor of the transport lam u_x) with a CFL-adaptive step on the speed
|u| alone: lam u_x has constant coefficients, so the Fourier phase
exp(-lam i xi dt) carries it exactly on the u row, and RK4 only has to
resolve the Galilean-invariant rest (the nonlocal term is smoothing and
never stiff before breaking).  At lam = 0 the phase is 1 and is skipped,
so the step is classical RK4 bit for bit.

The solver's state is the rfft rows (u[, rho~]); it starts from the
initial fields' rows (Field.spectrum, one rfft each unless the caller's
criterion already made it), and each step returns the new rows.  One stage
function, _stage, is the only place the right-hand side is computed: it
takes the rows, makes one batched irfft of the filtered fields and slopes
and one batched rfft of the quadratic products, and returns the time
derivatives as rfft rows, without the transport lam u_x that the step's
phase carries.  Each point the integration reaches is
evaluated once (_evaluate), with the grid values u[, rho~] as extra rows
of the same irfft, so a step costs 8 batched FFT calls; that evaluation
serves as the next step's first stage (also across NaN backoff), as the
finiteness test, as the record's du/dt, min u_x, E and F, as the slope
tracker's endpoint fields and as the grid-slope trigger.  A record keeps
only the state rows, as fields built from them (Field.spectrum), and
du/dt as an rfft row, so the path integration (characteristics.advect)
and the public E and F read them without a transform; a record field
derives its samples from its row on first use, bit for bit those of the
batched irfft.  The grid's Fourier bookkeeping
(derivative symbol, 2/3 filter rows, trigonometric interpolant) comes
from grid.spectral, the Helmholtz symbols from the NonlocalOperator that
simulate builds from the initial datum's grid and alpha.

Breaking detection.  At a breaking point the solution keeps a square-root
cusp, so the minimum of the spectrally sampled u_x saturates at O(sqrt(N))
and then rebounds: no grid sampling can follow inf u_x to -infinity.  The
quantity that genuinely collapses is the slope along the steepest
characteristics, which obeys the exact pointwise identity

    d/dt u_x(t, q) = -u_x^2/2 + f,
    f = (u^2 + 2ku)/alpha^2 - (1/alpha^2) p*(alpha^2/2 u_x^2 + u^2 + 2ku)(q)

(plus sigma (rho~^2/2 + rho~)/alpha^2 for the two-component system), in
which f is a bounded, well-resolved convolution.  With u_x = 2w'/w the
Riccati equation becomes linear, w'' = f w/2, and breaking is a zero of w.
The solver co-integrates (q, w, w') along a few automatically chosen seeds
and declares breaking when the tracked slope crosses the threshold -M.
The plunge from -M to -infinity takes about 2/M, so t_detect + 2/M hardly
depends on M, and it converges in N with the solver.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analysis import _energy_e, _energy_f, _margin, _vacuum_point
from .core import Field, Parameters, State
from .helmholtz import NonlocalOperator

__all__ = [
    "SolverConfig",
    "RecordDiagnostics",
    "TrajectoryRecord",
    "BlowupReport",
    "TRIGGER_SLOPE",
    "TRIGGER_DT",
    "TRIGGER_HORIZON",
    "simulate",
]

TRIGGER_SLOPE = "slope_threshold"
TRIGGER_DT = "dt_underflow"
TRIGGER_HORIZON = "horizon_reached"

_SPEED_FLOOR = 1e-12

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping knobs; defaults are safe for desk-scale runs."""

    t_max: float
    cfl: float = 0.3
    dt_min: float = 1e-9
    slope_blowup_threshold: float = 1e4
    record_every: int = 4

    def __post_init__(self) -> None:
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        # a NaN fails every comparison, so each test is written to fail on it
        for name in ("t_max", "dt_min", "slope_blowup_threshold"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


class _Eval(NamedTuple):
    """Stage evaluation at a point the integration has reached: the next
    step's first stage, the finiteness test, the record's rows, du/dt,
    min u_x, E and F, the slope tracker's endpoint fields and the
    grid-slope trigger."""

    # rfft rows u[, rho~] and p*(alpha^2/2 u_x^2 + u^2 + 2ku [+ rho~^2/2 + rho~])
    coef: np.ndarray
    # time derivatives of the rows u[, rho~] without the transport lam u_x
    k_hat: np.ndarray
    # samples u_f, u_x,f, u_x, u[, rho~][, rho~_f, rho~_x,f] (f: 2/3-filtered)
    phys: np.ndarray

    @property
    def y(self) -> np.ndarray:
        """The grid values u[, rho~] of the reached point."""
        return self.phys[3 : 3 + self.k_hat.shape[0]]


def _stage(
    y_hat: np.ndarray,
    op: NonlocalOperator,
    params: Parameters,
    grid_rows: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(time derivatives without lam u_x, convolution argument, samples)
    of the rfft rows y_hat = (u[, rho~]) with one batched irfft and one
    batched rfft; the samples are u_f, u_x,f[, u_x, u[, rho~]][, rho~_f,
    rho~_x,f], the rows in brackets only with grid_rows=True.  Each
    quantity is formed once, in the array that is then transformed or
    returned: the derivatives and the convolution argument are rows of
    the products' rfft."""
    sp = op.grid.spectral
    c = y_hat.shape[0]
    two = c == 2
    u_hat = y_hat[0]
    n_u = 3 if grid_rows else 2  # u's filter rows
    spec = np.empty((n_u + (c if grid_rows else 0) + (2 if two else 0), u_hat.size), dtype=complex)
    np.multiply(sp.filters[:n_u], u_hat, out=spec[:n_u])
    if grid_rows:
        spec[n_u : n_u + c] = y_hat
    if two:
        np.multiply(sp.filters[:2], y_hat[1], out=spec[-2:])
    phys = np.fft.irfft(spec, n=sp.n)
    uf, uxf = phys[0], phys[1]

    # rows u_f u_x,f, alpha^2/2 u_x,f^2 + u_f^2 [+ sigma rho~_f^2/2][, (u rho~)_x,f]
    prods = np.empty((c + 1, sp.n))
    np.multiply(uf, uxf, out=prods[0])
    quad = prods[1]
    np.multiply(0.5 * params.alpha**2, uxf, out=quad)
    quad *= uxf
    quad += uf * uf
    if two:
        # sigma scales the density coupling, as it does the density terms of E and F
        rf, rxf = phys[-2], phys[-1]
        quad += params.sigma * 0.5 * rf * rf
        np.multiply(uf, rxf, out=prods[2])
        prods[2] += uxf * rf
    prod_hat = np.fft.rfft(prods)
    prod_hat[:, sp.cut :] = 0.0

    conv_hat = prod_hat[1]
    conv_hat += 2.0 * params.k * u_hat
    if two:
        conv_hat += params.sigma * y_hat[1]
    k_hat = prod_hat[::2]  # -(u u_x)^ - dQ conv[, -((u rho~)_x)^ - (u_x)^]
    np.negative(k_hat, out=k_hat)
    k_hat[0] -= op.symbol_dq * conv_hat
    if two:
        k_hat[1] -= sp.ik * u_hat
    return k_hat, conv_hat, phys


def _evaluate(y_hat: np.ndarray, op: NonlocalOperator, params: Parameters) -> _Eval:
    """Stage evaluation at a reached point, the rfft rows y_hat = (u[, rho~])."""
    c = y_hat.shape[0]
    coef = np.empty((c + 1, op.symbol_q.size), dtype=complex)
    coef[:c] = y_hat
    k_hat, conv_hat, phys = _stage(coef[:c], op, params, grid_rows=True)
    np.multiply(op.symbol_q, conv_hat, out=coef[c])
    return _Eval(coef, k_hat, phys)


def _step(ev: _Eval, dt: float, op: NonlocalOperator, params: Parameters) -> np.ndarray:
    """The rfft rows one Lawson RK4 step after the point evaluated as ev,
    which is the first stage.  With N the stage function and E(s) the
    phase exp(-lam i xi s) on the u row only (rho~ moves at u, not at
    u + lam):

        k2 = N(E(dt/2) (y + dt/2 k1)),   k3 = N(E(dt/2) y + dt/2 k2),
        k4 = N(E(dt) y + dt E(dt/2) k3),
        y1 = E(dt) y + dt/6 (E(dt) k1 + 2 E(dt/2) k2 + 2 E(dt/2) k3 + k4).

    E carries lam u_x exactly, so the transport neither limits dt nor adds
    time-stepping error; N is translation-equivariant (2/3-dealiased
    products of band-limited rows), so a run at lam is the lam = 0 run at
    the same k shifted by lam t, up to the time-stepping error of its
    slightly different CFL steps (the node maximum of |u| moves with the
    shift).  At lam = 0 the phase is skipped and this is classical RK4,
    bit for bit.  All stages and the increment stay in Fourier space; each
    stage point is built in the array of its scaled slope, the increment
    is summed in k2's, and the phase multiplies only the u rows."""
    y_hat, k1 = ev.coef[:-1], ev.k_hat
    half = full = None  # the phases E(dt/2) and E(dt); none at lam = 0
    if params.lam != 0.0:
        half = np.exp((-0.5 * dt * params.lam) * op.grid.spectral.ik)
        full = half * half
    point = (0.5 * dt) * k1
    point += y_hat
    k2 = _stage(_transport(point, half), op, params)[0]
    point = (0.5 * dt) * k2
    _add_transported(point, y_hat, half)
    # E(dt/2) k3 enters k4's point and the sum
    k3 = _transport(_stage(point, op, params)[0], half)
    point = dt * k3
    _add_transported(point, y_hat, full)
    k4 = _stage(point, op, params)[0]
    # the increment, summed in k2's array, which then becomes y1
    y1 = _transport(k2, half)
    y1 *= 2.0
    _add_transported(y1, k1, full)
    k3 *= 2.0
    y1 += k3
    y1 += k4
    y1 *= dt / 6.0
    _add_transported(y1, y_hat, full)
    return y1


def _transport(rows: np.ndarray, phase: np.ndarray | None) -> np.ndarray:
    """rows, with the u row multiplied in place by the transport phase
    (none at lam = 0)."""
    if phase is not None:
        rows[0] *= phase
    return rows


def _add_transported(out: np.ndarray, rows: np.ndarray, phase: np.ndarray | None) -> None:
    """out += rows with the u row of rows multiplied by the transport phase
    (none at lam = 0); the rows the phase leaves alone are not copied."""
    if phase is None:
        out += rows
    else:
        out[0] += rows[0] * phase
        out[1:] += rows[1:]


class _SlopeTracker:
    """Lagrangian estimate of inf_x u_x along automatically chosen seeds.

    Seeds: the node minimizing u0_x, the node minimizing the criterion
    margin alpha*u0_x + |u0 + k| and, for two-component data, the node
    nearest the criterion's vacuum point (analysis._vacuum_point).  The
    slope is g = 2w'/w with w'' = f w/2 (module docstring), w(0) = 1 and
    w'(0) = g0/2.  Each solver step moves the rows (q, w, w') of all active
    seeds by one Heun step, the predictor in the fields of the step's start
    and the corrector in those of its end (the linear blend in time at
    weights 0 and 1).  g crosses -M at the first sign change of
    phi = w' + (M/2) w on phi's cubic Hermite interpolant over the step.
    A seed leaving the safe box (_in_safe_box) is deactivated.
    """

    def __init__(self, state: State, ux0: np.ndarray, params: Parameters):
        grid = state.u.grid
        self.sp = grid.spectral
        self.params = params

        u0, rho0 = state.u, state.rho_tilde
        idx = [int(np.argmin(ux0)), int(np.argmin(_margin(ux0, u0.values, params)))]
        vacuum = None if rho0 is None else _vacuum_point(u0, rho0, params)
        if vacuum is not None:  # the node nearest the vacuum point
            idx.append(int(np.rint((vacuum[0] + grid.half_length) / grid.dx)) % grid.n_points)
        seeds: list[int] = []
        for i in idx:
            if all(abs(i - j) > 4 for j in seeds):
                seeds.append(i)
        self.seeds_x0 = tuple(float(x) for x in grid.nodes[seeds])
        # the active seeds' x0 and rows (q, w, w')
        self.x0 = grid.nodes[seeds]
        self.y = np.array([self.x0, np.ones(len(seeds)), 0.5 * ux0[seeds]])

    def _rate(self, ev: _Eval, y: np.ndarray) -> np.ndarray:
        """d/dt of the rows (q, w, w') in the fields of the evaluation ev."""
        p = self.params
        u, *rho, c = self.sp.values(ev.coef, self.sp.basis(y[0]))
        f = u * u + 2.0 * p.k * u - c
        if rho:
            f += p.sigma * (0.5 * rho[0] * rho[0] + rho[0])
        return np.array([u + p.lam, y[2], (0.5 / p.alpha**2) * f * y[1]])

    def advance(
        self, ev0: _Eval, ev1: _Eval, t0: float, dt: float, threshold: float
    ) -> tuple[float, float, float] | None:
        """Advance all active seeds by dt; on a threshold crossing return
        (t_cross, g at the step's end, seed_x0) of the earliest one."""
        y = self.y
        r0 = self._rate(ev0, y)
        y1 = y + (0.5 * dt) * (r0 + self._rate(ev1, y + dt * r0))
        inside = _in_safe_box(y1[0], self.sp.half_length, self.params.alpha)
        phi = np.array([0.0, 0.5 * threshold, 1.0])  # w' + (M/2) w as a row vector
        cross = inside & (phi @ y1 < 0.0)
        crossing = None
        if cross.any():
            y1c = y1[:, cross]
            s = _first_root(
                phi @ y[:, cross], dt * (phi @ r0[:, cross]),
                phi @ y1c, dt * (phi @ self._rate(ev1, y1c)),
            )
            i = int(np.argmin(s))
            g = float(_slope(y1c)[i])
            crossing = (t0 + float(s[i]) * dt, g, float(self.x0[cross][i]))
        self.y, self.x0 = y1[:, inside], self.x0[inside]
        return crossing

    def min_slope(self) -> float:
        return float(np.min(_slope(self.y), initial=np.inf))


def _in_safe_box(q: np.ndarray, L: float, alpha: float) -> np.ndarray:
    """Which of the points q lie in [-L + 2 alpha, L - 2 alpha): closer to
    the ends of the periodic box [-L, L) it no longer approximates the line."""
    return (-L + 2.0 * alpha <= q) & (q < L - 2.0 * alpha)


def _slope(y: np.ndarray) -> np.ndarray:
    """g = 2w'/w of the rows (q, w, w'); -inf where w <= 0, that is, where
    the characteristic has already broken."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(y[1] > 0.0, 2.0 * y[2] / y[1], -np.inf)


def _first_root(p0, m0, p1, m1) -> np.ndarray:
    """First zero in [0, 1] of each cubic Hermite interpolant with values
    p0 > 0, p1 < 0 and end derivatives m0, m1 (arrays): the first sign
    change on 64 equal cells, then bisection (Horner only, no eigensolver)."""
    c = [2.0 * (p0 - p1) + m0 + m1, 3.0 * (p1 - p0) - 2.0 * m0 - m1, m0, p0]
    ends = np.linspace(0.0, 1.0, 65)[1:, None]  # right ends of the cells
    hi = ends[np.argmax(np.polyval(c, ends) <= 0.0, axis=0), 0]
    lo = hi - 1.0 / 64.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        neg = np.polyval(c, mid) <= 0.0
        lo, hi = np.where(neg, lo, mid), np.where(neg, mid, hi)
    return hi


@dataclass(frozen=True)
class RecordDiagnostics:
    """Per-record scalars, in the order of the trajectory.csv columns."""

    min_ux: float
    max_abs_u: float
    energy_e: float
    energy_f: float
    dt: float


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One recorded point.  The first record's ``state`` is the initial
    State itself; a later one's fields are built from the solver's rfft
    rows alone, their ``spectrum``, and derive their samples, the irfft of
    those rows, on first use.  ``du_dt_hat`` is the rfft row of du/dt
    there, read-only.  So a record keeps 2 rows of N/2 + 1 complex numbers
    for one component and 3 for two.
    """

    state: State
    diagnostics: RecordDiagnostics
    du_dt_hat: np.ndarray
    at_detection: bool = False


@dataclass(frozen=True)
class BlowupReport:
    """Outcome of a run; blew_up is true iff the trigger is not
    horizon_reached.

    min_slope_at_detect is the characteristic-tracked slope 2w'/w at the
    end of the step in which it crossed the threshold (the honest estimate
    of inf_x u_x; the per-record grid minimum in the trajectory diagnostics
    saturates at O(sqrt(N)) across a forming cusp); it is -inf when w <= 0
    there, i.e. the characteristic broke inside that step, and summary.json,
    which is standard JSON, writes that -inf as null.  t_detect is the
    crossing time inside the step.  detector_x0 is the seed of the
    characteristic that fired.
    """

    blew_up: bool
    trigger: str
    t_detect: float | None = None
    min_slope_at_detect: float | None = None
    detector_x0: float | None = None


def simulate(
    initial: State, config: SolverConfig, params: Parameters
) -> tuple[list[TrajectoryRecord], BlowupReport]:
    """Integrate until the horizon, a slope-threshold crossing, or dt
    underflow; record the initial state, every record_every-th step and the
    point where the run stops.  The records' times strictly increase and
    the first record's state is ``initial`` itself.  The Helmholtz operator is
    built here, on the grid of the initial datum with params.alpha, so the
    two cannot disagree.

    Each step is tried at the CFL step (cut to end at the horizon) and
    halved until it is finite.  Breaking is declared when the
    characteristic-tracked slope or the grid minimum of u_x falls below
    -slope_blowup_threshold (slope_threshold), or when the tried step is
    under dt_min: the CFL step itself, after amplitude blowup, or the
    halved one, after NaN backoff (dt_underflow, the last finite state
    retained).  The final record is the point the run stopped at, tagged
    at_detection iff the run blew up; its dt is the step that reached it
    (the cut last step at the horizon), or at dt underflow the refused one.
    """
    grid = initial.u.grid
    op = NonlocalOperator(grid, params.alpha)
    two = initial.rho_tilde is not None

    # ev is the stage evaluation at the reached point, y its grid rows
    # (u[, rho~]): the initial samples, then the rows of each evaluation
    fields = [initial.u] + ([initial.rho_tilde] if two else [])
    y = [f.values for f in fields]
    with np.errstate(over="ignore", invalid="ignore"):
        # the initial fields' rows, cached there for the caller's criterion
        ev = _evaluate(np.array([f.spectrum for f in fields]), op, params)

    t = float(initial.t)
    records: list[TrajectoryRecord] = []

    def snapshot(dt_used: float, at_detection: bool = False) -> None:
        # the first record is the initial datum itself; a later one keeps
        # only the state rows (the step loop has checked their samples)
        state = initial if not records else State(
            t, *(Field(grid, rfft_row=row) for row in ev.coef[:-1])
        )
        # the stages leave out lam u_x, which the step's phase carries
        du_dt_hat = ev.k_hat[0].copy()
        if params.lam != 0.0:
            du_dt_hat -= params.lam * grid.spectral.ik * ev.coef[0]
        du_dt_hat.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            rho, rf = (y[1], ev.phys[-2]) if two else (None, None)
            diag = RecordDiagnostics(
                min_ux=float(np.min(ev.phys[2])),
                max_abs_u=float(np.max(np.abs(y[0]))),
                energy_e=_energy_e(y[0], ev.phys[2], rho, params, grid.dx),
                energy_f=_energy_f(ev.phys[0], ev.phys[1], rf, params, grid.dx),
                dt=dt_used,
            )
        records.append(
            TrajectoryRecord(
                state=state,
                diagnostics=diag,
                du_dt_hat=du_dt_hat,
                at_detection=at_detection,
            )
        )

    snapshot(dt_used=0.0)

    tracker = _SlopeTracker(initial, ev.phys[2], params)

    horizon = config.t_max
    threshold = config.slope_blowup_threshold
    steps = 0
    dt = 0.0  # the step that reached t
    dt_lo, dt_hi = np.inf, 0.0  # the smallest and largest step taken
    eps = 1e-12 * max(horizon, 1.0)

    while t < horizon - eps:
        # only |u|: the step's phase carries the transport at lam exactly
        speed = max(float(y[0].max()), -float(y[0].min()))
        dt = config.cfl * grid.dx / max(speed, _SPEED_FLOOR)
        # overflow inside a trial step is the breakdown signal, not an error;
        # the floor holds for the CFL step and for each halving of it
        with np.errstate(over="ignore", invalid="ignore"):
            while dt >= config.dt_min:
                dt = min(dt, horizon - t)
                ev_new = _evaluate(_step(ev, dt, op, params), op, params)
                if np.isfinite(ev_new.y).all():
                    break
                dt *= 0.5
            else:
                # the CFL step under the floor (amplitude blowup) or NaN
                # even at the floor: the last finite state is kept
                min_slope = min(float(np.min(ev.phys[2])), tracker.min_slope())
                report = BlowupReport(True, TRIGGER_DT, t, min_slope)
                break

        crossing = tracker.advance(ev, ev_new, t, dt, threshold)
        ev = ev_new
        y = ev.y
        t += dt
        steps += 1
        dt_lo, dt_hi = min(dt_lo, dt), max(dt_hi, dt)

        min_ux_grid = float(ev.phys[2].min())
        if crossing is not None:
            report = BlowupReport(True, TRIGGER_SLOPE, *crossing)
            break
        if min_ux_grid < -threshold:
            report = BlowupReport(True, TRIGGER_SLOPE, t, min_ux_grid)
            break
        if steps % config.record_every == 0:
            snapshot(dt_used=dt)
    else:  # no exit above: the horizon
        report = BlowupReport(False, TRIGGER_HORIZON)

    # the point the run stopped at, recorded once
    if records[-1].state.t < t - eps:
        snapshot(dt_used=dt, at_detection=report.blew_up)
    elif report.blew_up:
        records[-1] = replace(records[-1], at_detection=True)

    _log.debug(
        "simulate: %d steps, dt %.4g to %.4g, trigger %s; tracker seeds %s, "
        "%d active at the end",
        steps, dt_lo, dt_hi, report.trigger, tracker.seeds_x0, tracker.x0.size,
    )
    return records, report
