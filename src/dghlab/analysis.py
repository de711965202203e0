"""Conserved functionals, sharp-inequality gap fields and blowup criteria.

The inequality checks return the pointwise difference LHS - RHS as a
GapField; validity means the minimum gap is nonnegative up to round-off.
The local blowup criterion scans the initial datum for a point where
alpha*u0'(x) + |u0(x) + k| is negative and, when one exists, reports the
explicit breaking-time bound 2/sqrt(u0'(x0)^2 - (u0(x0)+k)^2/alpha^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Field, Parameters, State
from .helmholtz import NonlocalOperator

__all__ = [
    "GapField",
    "CriterionVerdict",
    "energy_E",
    "energy_F",
    "h_alpha_norm",
    "one_sided_gaps",
    "full_kernel_gap",
    "sobolev_gap",
    "check_criterion_dgh",
    "check_criterion_dgh2",
]


def _quadrature(values: np.ndarray, dx: float) -> float:
    """Trapezoid rule on the periodic grid (all nodes have equal weight)."""
    return float(np.sum(values) * dx)


def _energy_e(u, ux, rho, params: Parameters, dx: float) -> float:
    """E from the samples u, u_x [and rho~]."""
    dens = u * u + params.alpha**2 * ux * ux
    if rho is not None:
        dens = dens + rho * rho
    return 0.5 * _quadrature(dens, dx)


def _energy_f(uf, uxf, rf, params: Parameters, dx: float) -> float:
    """F from the 2/3-filtered samples u, u_x [and rho~]."""
    dens = uf**3 + params.alpha**2 * uf * uxf**2 + params.c0 * uf**2 - params.gamma * uxf**2
    if rf is not None:
        dens = dens + 2.0 * uf * rf + uf * rf * rf
    return 0.5 * _quadrature(dens, dx)


def energy_E(state: State, params: Parameters) -> float:
    """E = 1/2 int (u^2 + alpha^2 u_x^2) [+ 1/2 int rho~^2], conserved.

    The two-component density term uses rho~ = rho - 1: with rho -> 1 at
    infinity the un-shifted integral diverges on the line, while the
    shifted one differs from it only by quantities that are themselves
    conserved, so its drift is the meaningful diagnostic.
    """
    grid = state.u.grid
    u = state.u.values
    rho = None if state.rho_tilde is None else state.rho_tilde.values
    return _energy_e(u, grid.spectral.ddx(u), rho, params, grid.dx)


def energy_F(state: State, params: Parameters) -> float:
    """F = 1/2 int (u^3 + alpha^2 u u_x^2 + c0 u^2 - gamma u_x^2)
    [+ 1/2 int (2 u rho~ + u rho~^2)].

    The alpha power on the u u_x^2 term is quadratic, as dimensional
    consistency and the Camassa-Holm limit require; products are formed
    from 2/3-filtered factors so the cubic quadrature stays alias-free.
    """
    grid = state.u.grid
    sp = grid.spectral
    uf, uxf = np.fft.irfft(sp.filters[:2] * np.fft.rfft(state.u.values), n=sp.n)
    rf = None
    if state.rho_tilde is not None:
        rf = np.fft.irfft(sp.filters[0] * np.fft.rfft(state.rho_tilde.values), n=sp.n)
    return _energy_f(uf, uxf, rf, params, grid.dx)


def h_alpha_norm(u: Field, params: Parameters) -> float:
    """Scale-weighted Sobolev norm sqrt(int (u^2 + alpha^2 u_x^2))."""
    ux = u.grid.spectral.ddx(u.values)
    return float(
        np.sqrt(_quadrature(u.values**2 + params.alpha**2 * ux**2, u.grid.dx))
    )


@dataclass(frozen=True, eq=False)
class GapField:
    """LHS - RHS of one pointwise inequality; min_gap >= -tol certifies it."""

    field: Field
    min_gap: float
    argmin_x: float


def _gap_field(values: np.ndarray, grid) -> GapField:
    i = int(np.argmin(values))
    return GapField(
        field=Field(grid, values),
        min_gap=float(values[i]),
        argmin_x=float(grid.nodes[i]),
    )


def _check_operator(u: Field, op: NonlocalOperator, params: Parameters) -> None:
    """Raise ValueError unless op belongs to u's grid and params' alpha:
    under any other operator the gap would be a wrong number."""
    if op.grid != u.grid:
        raise ValueError("operator was built for a different grid than u")
    if op.alpha != params.alpha:
        raise ValueError(
            f"operator was built for alpha = {op.alpha}, parameters have alpha = {params.alpha}"
        )


def one_sided_gaps(
    u: Field, op: NonlocalOperator, params: Parameters
) -> tuple[GapField, GapField]:
    """Gaps of the two sharp one-sided convolution inequalities

        (p -+ alpha d_x p) * (alpha^2/2 u_x^2 + u^2 + 2k u) >= (u+k)^2/2 - k^2.

    Equality holds for the peakon family u = c*exp(-|x-y|/alpha) - k, on
    x <= y for the minus sign and x >= y for the plus sign.
    """
    _check_operator(u, op, params)
    # in the quarter band every quadratic product below is alias-free, so
    # the discrete gap equals the continuum gap of a genuine finite-energy
    # function: nonnegative up to the e^{-2L/alpha} periodization
    # correction even for kinked inputs like the peakon
    uv, ux = u.grid.spectral.quarter_band(u.values)
    w = Field(u.grid, 0.5 * params.alpha**2 * ux * ux + uv * uv + 2.0 * params.k * uv)
    minus, plus = op.one_sided_convolutions(w)
    rhs = 0.5 * (uv + params.k) ** 2 - params.k**2
    return (
        _gap_field(minus.values - rhs, u.grid),
        _gap_field(plus.values - rhs, u.grid),
    )


def full_kernel_gap(
    u: Field, op: NonlocalOperator, params: Parameters
) -> GapField:
    """Gap of p * (alpha^2/2 u_x^2 + (u+k)^2) >= (u+k)^2/2."""
    _check_operator(u, op, params)
    uv, ux = u.grid.spectral.quarter_band(u.values)
    w = 0.5 * params.alpha**2 * ux * ux + (uv + params.k) ** 2
    conv = op.apply_q_values(w)
    rhs = 0.5 * (uv + params.k) ** 2
    return _gap_field(conv - rhs, u.grid)


def sobolev_gap(u: Field, params: Parameters) -> float:
    """Slack in the sharp embedding max|u| <= ||u||_{H1,alpha}/sqrt(2 alpha);
    equality is attained by the peakon profile.

    Evaluated on the quarter-band representative of u, for which the node
    maximum is a lower bound on the true sup and the norm is Parseval
    exact, so the reported slack is never spuriously negative.
    """
    uv, ux = u.grid.spectral.quarter_band(u.values)
    norm = np.sqrt(
        _quadrature(uv * uv + params.alpha**2 * ux * ux, u.grid.dx)
    )
    return float(norm / np.sqrt(2.0 * params.alpha) - np.max(np.abs(uv)))


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the local-in-space breaking criterion.

    margin = alpha*u0'(x0) + |u0(x0) + k|; the criterion holds iff the
    margin is negative (for the two-component system additionally the
    density condition rho~0(x0) = -1 must be met at the same point), and
    then time_bound carries the explicit upper bound on the breaking time.
    """

    holds: bool
    x0_best: float
    margin: float
    time_bound: float | None = None
    rho_condition_met: bool | None = None


def _golden_refine(f, a: float, b: float, iters: int = 60) -> tuple[float, float]:
    """Golden-section minimization of a scalar callable on [a, b]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


def _margin_minimizer(u0: Field, params: Parameters) -> tuple[float, float, float, float]:
    """Grid scan plus one golden-section refinement of the criterion margin.

    Returns (x_best, margin, slope, value) at the refined minimizer.
    """
    grid = u0.grid
    sp = grid.spectral
    u_hat = np.fft.rfft(u0.values)
    ux_hat = sp.ik * u_hat
    ux = np.fft.irfft(ux_hat, n=grid.n_points)
    margins = params.alpha * ux + np.abs(u0.values + params.k)
    i = int(np.argmin(margins))

    def slope_value(x: float) -> tuple[float, float]:
        # one cos/sin pass per point; two separate matmuls on it keep the
        # results bit-identical to one basis per row (one stacked matmul
        # does not)
        basis = sp.basis(x)
        return float(sp.values(ux_hat, basis)[0]), float(sp.values(u_hat, basis)[0])

    def margin_at(x: float) -> float:
        s, v = slope_value(x)
        return params.alpha * s + abs(v + params.k)

    # refine over the three cells around the discrete minimizer; the
    # criterion point need not be a node
    a = grid.nodes[i] - grid.dx
    b = grid.nodes[i] + grid.dx
    x_ref, m_ref = _golden_refine(margin_at, a, b)
    if m_ref < margins[i]:
        x_best, margin = float(x_ref), float(m_ref)
    else:
        x_best, margin = float(grid.nodes[i]), float(margins[i])
    slope, value = slope_value(x_best)
    return x_best, margin, slope, value


def _time_bound(slope: float, value: float, params: Parameters) -> float:
    return 2.0 / np.sqrt(slope**2 - ((value + params.k) / params.alpha) ** 2)


def check_criterion_dgh(u0: Field, params: Parameters) -> CriterionVerdict:
    """Local breaking criterion for the one-component equation:
    holds iff u0'(x0) < -|u0(x0) + k|/alpha at some point, in which case
    the breaking time is below 2/sqrt(u0'(x0)^2 - (u0(x0)+k)^2/alpha^2).

    A non-holding verdict is a valid result: the criterion is sufficient,
    not necessary.
    """
    x_best, margin, slope, value = _margin_minimizer(u0, params)
    holds = margin < 0.0
    bound = _time_bound(slope, value, params) if holds else None
    return CriterionVerdict(
        holds=holds, x0_best=x_best, margin=margin, time_bound=bound
    )


def check_criterion_dgh2(
    u0: Field,
    rho0: Field,
    params: Parameters,
    rho_tol: float = 1e-10,
) -> CriterionVerdict:
    """Local breaking criterion for the two-component system (gamma = 0):
    requires rho~0(x0) = -1 and u0'(x0) < -|u0(x0) + c0/2|/alpha at a
    common point.
    """
    if params.gamma != 0.0:
        raise ValueError(
            "the two-component criterion requires gamma = 0; "
            f"got gamma = {params.gamma}"
        )
    if rho0.grid != u0.grid:
        raise ValueError("u0 and rho0 must share one grid")
    grid = u0.grid
    ux = grid.spectral.ddx(u0.values)
    margins = params.alpha * ux + np.abs(u0.values + params.k)
    at_minus_one = np.abs(rho0.values + 1.0) <= rho_tol
    if not np.any(at_minus_one):
        i = int(np.argmin(margins))
        return CriterionVerdict(
            holds=False,
            x0_best=float(grid.nodes[i]),
            margin=float(margins[i]),
            rho_condition_met=False,
        )
    candidates = np.where(at_minus_one)[0]
    i = int(candidates[np.argmin(margins[candidates])])
    x_best = float(grid.nodes[i])
    margin = float(margins[i])
    slope = float(ux[i])
    value = float(u0.values[i])
    holds = margin < 0.0
    bound = _time_bound(slope, value, params) if holds else None
    return CriterionVerdict(
        holds=holds,
        x0_best=x_best,
        margin=margin,
        time_bound=bound,
        rho_condition_met=True,
    )
