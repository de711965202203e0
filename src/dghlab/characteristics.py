"""Particle paths and the proof-level quantities tracked along them.

The flow map solves dq/dt = u(t, q) + lam from a recorded trajectory:
cubic Hermite interpolation in time (each record stores the instantaneous
time derivative of the fields) combined with trigonometric interpolation
in space, so the diagnostics keep spectral accuracy without re-running
the solver.  Both read the rfft rows the records carry (the fields'
``spectrum`` and ``du_dt_hat``), record by record, so a call makes no FFT.
All seeds advance together through one multi-point value+derivative
evaluator; one cos/sin pass at a record gives u, u_x, m and rho~ for every
seed and doubles as the first RK4 stage, so each recorded interval costs
four trig passes.  Along each path we evaluate the slope g = u_x(t, q), the
stretch q_x, the exponentially weighted pair (A, B) whose monotonicity
drives the Riccati slope collapse, their unweighted variants, and the
residuals of the momentum identity and of the two-component density
invariant.  Each of these path functionals takes a PathPoint whose fields
are scalars or arrays, and advect calls it once per path on the whole
recorded series.

The weighted pair grows like exp(t |k - lam| / alpha) and can overflow;
it is therefore carried in sign + log-magnitude form, on which
monotonicity can be checked without overflow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Parameters
from .evolution import Trajectory, _in_safe_box

__all__ = [
    "PathPoint",
    "CharacteristicPath",
    "advect",
    "weighted_ab_log",
    "plain_ab",
    "collapse_rate",
    "momentum_residual",
    "rho_invariant_residual",
]


@dataclass(frozen=True)
class PathPoint:
    """The fields along one path at one recorded time or at several: each
    field is a scalar or an array over the path's records, all arrays of
    one length (m0 and rho0, the values at the seed, may stay scalars).
    The path functionals below return scalars or arrays to match."""

    t: float | np.ndarray
    q: float | np.ndarray
    qx: float | np.ndarray
    u: float | np.ndarray
    ux: float | np.ndarray
    m: float | np.ndarray
    m0: float | np.ndarray
    rho: float | np.ndarray | None = None
    rho0: float | np.ndarray | None = None


def weighted_ab_log(point: PathPoint, params: Parameters):
    """Exponentially weighted monotone pair in sign + log-magnitude form,

        A = exp(q/alpha + (k-lam) t/alpha) * ((u+k)/alpha - u_x)
        B = exp(-q/alpha + (lam-k) t/alpha) * ((u+k)/alpha + u_x),

    as (sign_A, log|A|, sign_B, log|B|); log|.| is -inf for exact zeros.
    A is nondecreasing and B nonincreasing in t along every path.
    """
    a = params.alpha
    base_a = (point.u + params.k) / a - point.ux
    base_b = (point.u + params.k) / a + point.ux
    wa = (point.q + (params.k - params.lam) * point.t) / a
    with np.errstate(divide="ignore"):
        la = wa + np.log(np.abs(base_a))
        lb = -wa + np.log(np.abs(base_b))
    return np.sign(base_a), la, np.sign(base_b), lb


def plain_ab(point: PathPoint, params: Parameters):
    """Unweighted variants A = (u+k)/alpha - u_x, B = (u+k)/alpha + u_x."""
    base = (point.u + params.k) / params.alpha
    return base - point.ux, base + point.ux


def collapse_rate(a, b):
    """h = sqrt(-A*B) for the unweighted pair where A*B < 0, NaN elsewhere
    (scalars or equal-length arrays).  Along criterion-satisfying paths h
    grows at least like h^2/2, which yields the breaking-time bound 2/h(0)."""
    prod = a * b
    return np.where(prod < 0.0, np.sqrt(np.abs(prod)), np.nan)[()]


def momentum_residual(point: PathPoint, params: Parameters):
    """LHS - RHS of the conserved momentum identity

        m0(x0) + k = (m(t, q) + k) * q_x^2,

    using c0/2 + gamma/(2 alpha^2) = k; zero along exact solutions."""
    return (point.m0 + params.k) - (point.m + params.k) * point.qx**2


def rho_invariant_residual(point: PathPoint):
    """(rho~(t,q) + 1) q_x - (rho~0(x0) + 1); zero along exact solutions
    of the two-component system."""
    if point.rho is None or point.rho0 is None:
        raise ValueError("density invariant needs a two-component path")
    return (point.rho + 1.0) * point.qx - (point.rho0 + 1.0)


@dataclass(frozen=True, eq=False)
class CharacteristicPath:
    """Time series along one characteristic seeded at x0.

    All arrays share the trajectory's recorded times (possibly truncated
    at a domain-boundary exit).  ``n_pre_detection`` counts the leading
    entries recorded strictly before breaking detection.
    """

    x0: float
    t: np.ndarray
    q: np.ndarray
    qx: np.ndarray
    u: np.ndarray
    g: np.ndarray
    a_weighted: np.ndarray
    b_weighted: np.ndarray
    sign_a_w: np.ndarray
    log_abs_a_w: np.ndarray
    sign_b_w: np.ndarray
    log_abs_b_w: np.ndarray
    a_plain: np.ndarray
    b_plain: np.ndarray
    h_plain: np.ndarray
    momentum_res: np.ndarray
    rho_res: np.ndarray | None
    n_pre_detection: int
    truncated: bool
    weight_overflow: bool


def advect(traj: Trajectory, x0, params: Parameters):
    """Integrate the particle paths seeded at x0 through a recorded
    trajectory and evaluate all path diagnostics at the recorded times.

    x0 is one seed, which gives one CharacteristicPath, or a sequence of
    seeds, which gives a list of paths in seed order.  All seeds advance
    together: one trig pass per evaluation point set serves every seed,
    on the rfft rows the records carry.  q and q_x are
    advanced with RK4 over each recorded interval (the stretch solves
    dq_x/dt = u_x(t, q) q_x); the values at a record are the first RK4
    stage.  If a path approaches the domain boundary closer than 2*alpha
    its series is truncated there and flagged, since the periodic box no
    longer approximates the line.
    """
    grid = traj.grid
    L = grid.half_length
    seeds = np.atleast_1d(np.asarray(x0, dtype=float))
    for x in seeds:
        if not (-L <= x < L):
            raise ValueError(f"seed {x} outside the domain [-{L}, {L})")

    ev = grid.spectral
    records = traj.records
    two = records[0].state.rho_tilde is not None
    n_rec = len(records)
    times = traj.times()
    lam = params.lam
    # momentum coefficients at record times: m_hat = (1 + alpha^2 xi^2) u_hat
    helm = 1.0 + params.alpha**2 * ev.xi**2

    def rhs(coef, qq, qqx):
        basis = ev.basis(qq)
        return ev.values(coef, basis) + lam, ev.slopes(coef, basis) * qqx

    # (q, q_x, u, u_x, m, rho~) per record and seed; live seeds are still
    # inside the safe box
    series = np.full((n_rec, seeds.size, 6), np.nan)
    length = np.zeros(seeds.size, dtype=int)
    truncated = np.zeros(seeds.size, dtype=bool)
    q = seeds.copy()
    qx = np.ones_like(q)
    live = np.arange(seeds.size)
    for i in range(n_rec):
        basis = ev.basis(q[live])
        r = records[i]
        c0 = r.state.u.spectrum
        u_val = ev.values(c0, basis)
        ux_val = ev.slopes(c0, basis)
        series[i, live, 0] = q[live]
        series[i, live, 1] = qx[live]
        series[i, live, 2] = u_val
        series[i, live, 3] = ux_val
        series[i, live, 4] = ev.values(helm * c0, basis)
        if two:
            series[i, live, 5] = ev.values(r.state.rho_tilde.spectrum, basis)
        length[live] += 1
        if i == n_rec - 1:
            break

        # one RK4 step across the recorded interval
        dt = times[i + 1] - times[i]
        nxt = records[i + 1]
        c1 = nxt.state.u.spectrum
        # cubic Hermite blend at the interval midpoint (weights 1/2, 1/2,
        # dt/8, -dt/8)
        cm = 0.5 * c0 + 0.5 * c1 + dt * (0.125 * r.du_dt_hat - 0.125 * nxt.du_dt_hat)
        qq, qqx = q[live], qx[live]
        k1 = (u_val + lam, ux_val * qqx)
        k2 = rhs(cm, qq + 0.5 * dt * k1[0], qqx + 0.5 * dt * k1[1])
        k3 = rhs(cm, qq + 0.5 * dt * k2[0], qqx + 0.5 * dt * k2[1])
        k4 = rhs(c1, qq + dt * k3[0], qqx + dt * k3[1])
        qq = qq + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        qx[live] = qqx + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        q[live] = qq

        inside = _in_safe_box(qq, L, params.alpha)
        truncated[live[~inside]] = True
        live = live[inside]
        if live.size == 0:
            break

    pre = np.cumsum([not r.at_detection for r in records])
    paths = []
    for j, x in enumerate(seeds):
        n = length[j]
        q_j, qx_j, u_j, ux_j, m_j, rho_j = np.ascontiguousarray(series[:n, j].T)
        pt = PathPoint(
            t=times[:n], q=q_j, qx=qx_j, u=u_j, ux=ux_j, m=m_j, m0=m_j[0],
            rho=rho_j if two else None, rho0=rho_j[0] if two else None,
        )
        sa, la, sb, lb = weighted_ab_log(pt, params)
        with np.errstate(over="ignore"):  # the weighted pair from its log form
            aw, bw = sa * np.exp(la), sb * np.exp(lb)
        ap, bp = plain_ab(pt, params)
        paths.append(CharacteristicPath(
            x0=float(x), t=pt.t, q=q_j, qx=qx_j, u=u_j, g=ux_j,
            a_weighted=aw, b_weighted=bw,
            sign_a_w=sa, log_abs_a_w=la, sign_b_w=sb, log_abs_b_w=lb,
            a_plain=ap, b_plain=bp,
            h_plain=collapse_rate(ap, bp),
            momentum_res=momentum_residual(pt, params),
            rho_res=rho_invariant_residual(pt) if two else None,
            n_pre_detection=int(pre[n - 1]),
            truncated=bool(truncated[j]),
            weight_overflow=bool(np.any(np.isinf(aw)) or np.any(np.isinf(bw))),
        ))
    return paths[0] if np.ndim(x0) == 0 else paths
