"""Particle paths and the proof-level quantities tracked along them.

The flow map solves dq/dt = u(t, q) + lam from a recorded trajectory:
cubic Hermite interpolation in time (each record stores the instantaneous
time derivative of the fields) combined with trigonometric interpolation
in space, so the diagnostics keep spectral accuracy without re-running
the solver.  Both read the rfft rows the records carry (the fields'
``spectrum`` and ``du_dt_hat``), record by record, so a call makes no FFT.
The integrator (PathIntegrator) is fed one record at a time and holds
only the previous one, so it can take each record as simulate hands it
over; advect runs it over any iterable of records.
All seeds advance together through one multi-point value+derivative
evaluator; one cos/sin pass at a record gives u, u_x, m and rho~ for every
seed and doubles as the first RK4 stage, so each recorded interval costs
four trig passes.  Along each path we evaluate the slope g = u_x(t, q), the
stretch q_x, the exponentially weighted pair (A, B) whose monotonicity
drives the Riccati slope collapse, their unweighted variants, and the
residuals of the momentum identity and, at lam = 0, of the two-component
density invariant.  Each of these path functionals takes only the series it
reads, as scalars or equal-length arrays, and advect calls it once per
path on the whole recorded series.

The weighted pair grows like exp(t |k - lam| / alpha) and can overflow;
it is therefore carried in sign + log-magnitude form, on which
monotonicity can be checked without overflow.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import Parameters
from .evolution import TrajectoryRecord, _in_safe_box
from .helmholtz import NonlocalOperator

__all__ = [
    "CharacteristicPath",
    "PathIntegrator",
    "advect",
    "weighted_ab_log",
    "plain_ab",
    "momentum_residual",
    "rho_invariant_residual",
]


def plain_ab(u, ux, params: Parameters):
    """Unweighted pair A = (u+k)/alpha - u_x, B = (u+k)/alpha + u_x."""
    base = (u + params.k) / params.alpha
    return base - ux, base + ux


def weighted_ab_log(t, q, u, ux, params: Parameters):
    """Exponentially weighted monotone pair in sign + log-magnitude form,

        A = exp(q/alpha + (k-lam) t/alpha) * ((u+k)/alpha - u_x)
        B = exp(-q/alpha + (lam-k) t/alpha) * ((u+k)/alpha + u_x),

    as (sign_A, log|A|, sign_B, log|B|); log|.| is -inf for exact zeros.
    A is nondecreasing and B nonincreasing in t along every path.
    """
    base_a, base_b = plain_ab(u, ux, params)
    wa = (q + (params.k - params.lam) * t) / params.alpha
    with np.errstate(divide="ignore"):
        la = wa + np.log(np.abs(base_a))
        lb = -wa + np.log(np.abs(base_b))
    return np.sign(base_a), la, np.sign(base_b), lb


def momentum_residual(m, m0, qx, params: Parameters):
    """LHS - RHS of the conserved momentum identity

        m0(x0) + k = (m(t, q) + k) * q_x^2,

    using c0/2 + gamma/(2 alpha^2) = k; zero along exact solutions."""
    return (m0 + params.k) - (m + params.k) * qx**2


def rho_invariant_residual(rho, rho0, qx):
    """(rho~(t,q) + 1) q_x - (rho~0(x0) + 1); zero along the paths of
    exact solutions of the two-component system that move at u, so at
    lam = 0 only (the density moves at u, the paths at u + lam)."""
    return (rho + 1.0) * qx - (rho0 + 1.0)


@dataclass(frozen=True, eq=False)
class CharacteristicPath:
    """Time series along one characteristic seeded at x0.

    All arrays share the trajectory's recorded times (possibly truncated
    at a domain-boundary exit).  ``n_pre_detection`` counts the leading
    entries recorded strictly before breaking detection.  ``rho_res`` is
    None for one component, and for two at lam != 0, where the path
    moves at u + lam and the density invariant does not hold along it.
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
    momentum_res: np.ndarray
    rho_res: np.ndarray | None
    n_pre_detection: int
    truncated: bool
    weight_overflow: bool


class PathIntegrator:
    """advect's integrator, fed a run's records one at a time, in order:
    ``integrator(record)`` takes the next record, so the integrator can be
    simulate's consumer, and ``paths()`` gives what advect returns.  It
    holds the previous record and the seeds' small per-record series, no
    more.  x0 is checked against the domain at the first record.
    """

    def __init__(self, x0, params: Parameters):
        self.x0 = x0
        self.params = params
        self.seeds = np.atleast_1d(np.asarray(x0, dtype=float))
        # per record fed: t and whether it precedes detection; per record
        # reached by a live seed: (q, q_x, u, u_x, m, rho~) of every seed
        self.times: list[float] = []
        self.pre: list[bool] = []
        self.series: list[np.ndarray] = []
        # the previous record and u, u_x of the live seeds there
        self.prev: tuple[TrajectoryRecord, np.ndarray, np.ndarray] | None = None

    def _start(self, record: TrajectoryRecord) -> None:
        grid = record.state.u.grid
        L = grid.half_length
        for x in self.seeds:
            if not (-L <= x < L):
                raise ValueError(f"seed {x} outside the domain [-{L}, {L})")
        self.sp = grid.spectral
        # the density invariant holds along paths moving at u, and these move
        # at u + lam: at lam != 0 a path has no density residual
        self.density = record.state.rho_tilde is not None and self.params.lam == 0.0
        # momentum coefficients at record times: m_hat = (1 + alpha^2 xi^2) u_hat
        self.helm = NonlocalOperator(grid, self.params.alpha).symbol_helm
        self.length = np.zeros(self.seeds.size, dtype=int)
        self.truncated = np.zeros(self.seeds.size, dtype=bool)
        self.q = self.seeds.copy()
        self.qx = np.ones_like(self.q)
        # live seeds are still inside the safe box
        self.live = np.arange(self.seeds.size)

    def __call__(self, record: TrajectoryRecord) -> None:
        if not self.times:
            self._start(record)
        elif self.live.size:
            self._step(record)
        self.times.append(record.state.t)
        self.pre.append(not record.at_detection)
        if self.live.size:
            self._visit(record)

    def _visit(self, r: TrajectoryRecord) -> None:
        """The live seeds' series at the record r, whose u, u_x are also
        the first RK4 stage of the step from it."""
        ev, live = self.sp, self.live
        basis = ev.basis(self.q[live])
        c0 = r.state.u.spectrum
        u_val = ev.values(c0, basis)
        ux_val = ev.slopes(c0, basis)
        row = np.full((self.seeds.size, 6), np.nan)
        row[live, 0] = self.q[live]
        row[live, 1] = self.qx[live]
        row[live, 2] = u_val
        row[live, 3] = ux_val
        row[live, 4] = ev.values(self.helm * c0, basis)
        if self.density:
            row[live, 5] = ev.values(r.state.rho_tilde.spectrum, basis)
        self.series.append(row)
        self.length[live] += 1
        self.prev = (r, u_val, ux_val)

    def _rhs(self, coef, qq, qqx):
        basis = self.sp.basis(qq)
        return self.sp.values(coef, basis) + self.params.lam, self.sp.slopes(coef, basis) * qqx

    def _step(self, nxt: TrajectoryRecord) -> None:
        """One RK4 step of the live seeds across the recorded interval
        from the previous record to nxt."""
        (r, u_val, ux_val), self.prev = self.prev, None
        rhs, lam, live, qx = self._rhs, self.params.lam, self.live, self.qx
        dt = nxt.state.t - r.state.t
        c0, c1 = r.state.u.spectrum, nxt.state.u.spectrum
        # cubic Hermite blend at the interval midpoint (weights 1/2, 1/2,
        # dt/8, -dt/8)
        cm = 0.5 * c0 + 0.5 * c1 + dt * (0.125 * r.du_dt_hat - 0.125 * nxt.du_dt_hat)
        qq, qqx = self.q[live], qx[live]
        k1 = (u_val + lam, ux_val * qqx)
        k2 = rhs(cm, qq + 0.5 * dt * k1[0], qqx + 0.5 * dt * k1[1])
        k3 = rhs(cm, qq + 0.5 * dt * k2[0], qqx + 0.5 * dt * k2[1])
        k4 = rhs(c1, qq + dt * k3[0], qqx + dt * k3[1])
        qq = qq + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        qx[live] = qqx + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        self.q[live] = qq

        inside = _in_safe_box(qq, self.sp.half_length, self.params.alpha)
        self.truncated[live[~inside]] = True
        self.live = live[inside]

    def paths(self):
        """One CharacteristicPath for a single seed x0, else a list of
        them in seed order, over the records fed so far."""
        if not self.times:
            raise ValueError("no records to integrate along")
        params = self.params
        series = np.array(self.series)
        times = np.array(self.times)
        pre = np.cumsum(self.pre)
        paths = []
        for j, x in enumerate(self.seeds):
            n = self.length[j]
            q_j, qx_j, u_j, ux_j, m_j, rho_j = np.ascontiguousarray(series[:n, j].T)
            t_j = times[:n]
            sa, la, sb, lb = weighted_ab_log(t_j, q_j, u_j, ux_j, params)
            with np.errstate(over="ignore"):  # the weighted pair from its log form
                aw, bw = sa * np.exp(la), sb * np.exp(lb)
            ap, bp = plain_ab(u_j, ux_j, params)
            paths.append(CharacteristicPath(
                x0=float(x), t=t_j, q=q_j, qx=qx_j, u=u_j, g=ux_j,
                a_weighted=aw, b_weighted=bw,
                sign_a_w=sa, log_abs_a_w=la, sign_b_w=sb, log_abs_b_w=lb,
                a_plain=ap, b_plain=bp,
                momentum_res=momentum_residual(m_j, m_j[0], qx_j, params),
                rho_res=rho_invariant_residual(rho_j, rho_j[0], qx_j) if self.density else None,
                n_pre_detection=int(pre[n - 1]),
                truncated=bool(self.truncated[j]),
                weight_overflow=bool(np.any(np.isinf(aw)) or np.any(np.isinf(bw))),
            ))
        return paths[0] if np.ndim(self.x0) == 0 else paths


def advect(records: Iterable[TrajectoryRecord], x0, params: Parameters):
    """Integrate the particle paths seeded at x0 through the records of a
    run and evaluate all path diagnostics at their times: one pass of a
    PathIntegrator over records, simulate's list or any other iterable.

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
    integrate = PathIntegrator(x0, params)
    for record in records:
        integrate(record)
    return integrate.paths()
