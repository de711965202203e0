"""Conserved functionals, sharp-inequality gap fields and blowup criteria.

The inequality checks return the pointwise difference LHS - RHS as an
array; validity means the minimum gap is nonnegative up to round-off.
The local blowup criterion scans the initial datum for a point where
alpha*u0'(x) + |u0(x) + k| is negative and, when one exists, reports the
explicit breaking-time bound 2/sqrt(u0'(x0)^2 - (u0(x0)+k)^2/alpha^2).
x0 is found on the interpolant, off the grid too (Spectral.refine_min), and
the slope tracker seeds at the same vacuum point (_vacuum_point).
The lemma suite's random fields and peakon witness study live here too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Field, Grid, Parameters, State, ic_preset, make_grid
from .helmholtz import NonlocalOperator

__all__ = [
    "CriterionVerdict",
    "energy_E",
    "energy_F",
    "one_sided_gaps",
    "full_kernel_gap",
    "sobolev_gap",
    "gap_minimum",
    "random_band_limited",
    "peakon_witness_study",
    "check_criterion_dgh",
    "check_criterion_dgh2",
]


def _quadrature(values: np.ndarray, dx: float) -> float:
    """Trapezoid rule on the periodic grid (all nodes have equal weight)."""
    return float(values.sum() * dx)


def _energy_e(u, ux, rho, params: Parameters, dx: float) -> float:
    """E from the samples u, u_x [and rho~]."""
    dens = u * u + params.alpha**2 * ux * ux
    if rho is not None:
        dens = dens + params.sigma * (rho * rho)
    return 0.5 * _quadrature(dens, dx)


def _energy_f(uf, uxf, rf, params: Parameters, dx: float) -> float:
    """F from the 2/3-filtered samples u, u_x [and rho~]."""
    # uf * uf * uf, not uf**3: numpy's float power takes a slow pow path
    dens = uf * uf * uf + params.alpha**2 * uf * uxf**2 + params.c0 * uf**2 - params.gamma * uxf**2
    if rf is not None:
        dens = dens + params.sigma * (2.0 * uf * rf) + params.sigma * (uf * rf * rf)
    return 0.5 * _quadrature(dens, dx)


def energy_E(state: State, params: Parameters) -> float:
    """E = 1/2 int (u^2 + alpha^2 u_x^2) [+ sigma/2 int rho~^2], conserved.

    The two-component density term uses rho~ = rho - 1: with rho -> 1 at
    infinity the un-shifted integral diverges on the line, while the
    shifted one differs from it only by quantities that are themselves
    conserved, so its drift is the meaningful diagnostic.
    """
    grid = state.u.grid
    sp = grid.spectral
    ux = np.fft.irfft(sp.ik * state.u.spectrum, n=sp.n)
    rho = None if state.rho_tilde is None else state.rho_tilde.values
    return _energy_e(state.u.values, ux, rho, params, grid.dx)


def energy_F(state: State, params: Parameters) -> float:
    """F = 1/2 int (u^3 + alpha^2 u u_x^2 + c0 u^2 - gamma u_x^2)
    [+ sigma/2 int (2 u rho~ + u rho~^2)], conserved.

    The alpha power on the u u_x^2 term is quadratic, as dimensional
    consistency and the Camassa-Holm limit require; products are formed
    from 2/3-filtered factors so the cubic quadrature stays alias-free.
    """
    grid = state.u.grid
    sp = grid.spectral
    uf, uxf = np.fft.irfft(sp.filters[:2] * state.u.spectrum, n=sp.n)
    rf = None
    if state.rho_tilde is not None:
        rf = np.fft.irfft(sp.filters[0] * state.rho_tilde.spectrum, n=sp.n)
    return _energy_f(uf, uxf, rf, params, grid.dx)


def gap_minimum(gap: np.ndarray, grid: Grid) -> dict:
    """{"min_gap", "argmin_x"}: the least gap at the nodes of ``grid`` and the
    first node where it is taken; min_gap >= -tol certifies the inequality."""
    i = int(gap.argmin())
    return {"min_gap": float(gap[i]), "argmin_x": float(grid.nodes[i])}


def one_sided_gaps(grid: Grid, samples, band, alpha: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaps of the two sharp one-sided convolution inequalities

        (p -+ alpha d_x p) * (alpha^2/2 u_x^2 + u^2 + 2k u) >= (u+k)^2/2 - k^2,

    with p the kernel of ``grid`` and alpha.  Equality holds for the
    peakon family u = c*exp(-|x-y|/alpha) - k, on x <= y for the minus
    sign and x >= y for the plus sign.

    ``band`` is ``Spectral.quarter_band`` of u's rfft row, (u, u_x) at the m
    nodes of its working grid, where w is formed and convolved back to the N
    nodes; the right-hand side is formed there from band row 0 where m = N
    (the presets and the peakon), else from u's ``samples``, which a field
    with no bin above N/4 holds (to round-off) without a length-N transform.
    """
    # in the quarter band every quadratic product below is alias-free, so
    # the discrete gap equals the continuum gap of a genuine finite-energy
    # function: nonnegative up to the e^{-2L/alpha} periodization
    # correction even for kinked inputs like the peakon
    uv, ux = band
    u = uv if uv.size == grid.n_points else samples
    w = 0.5 * alpha**2 * ux * ux + uv * uv + 2.0 * k * uv
    minus, plus = NonlocalOperator(grid, alpha).one_sided_convolutions(w)
    rhs = 0.5 * (u + k) ** 2 - k**2
    minus -= rhs
    plus -= rhs
    return minus, plus


def full_kernel_gap(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Gap of p * (alpha^2/2 u_x^2 + (u+k)^2) >= (u+k)^2/2, as the mean of
    ``pair``, the gaps one_sided_gaps made for u at the alpha and k wanted.

    The one-sided kernels p -+ alpha p_x are 2p 1_{x>0} and 2p 1_{x<0}, so
    p is their mean, and with w = alpha^2/2 u_x^2 + u^2 + 2k u

        (gap_- + gap_+)/2 = p * w - ((u+k)^2/2 - k^2)
                          = p * (w + k^2) - (u+k)^2/2,

    the full-kernel gap, because p has unit mass: p * k^2 = k^2, on the
    grid too, where the symbol of Q is 1 at xi = 0 (symbol_q[0] = 1).
    """
    mean = np.add(*pair)
    mean *= 0.5
    return mean


def sobolev_gap(grid: Grid, samples, band, alpha: float) -> float:
    """Slack in the sharp embedding max|u| <= ||u||_{H1,alpha}/sqrt(2 alpha);
    equality is attained by the peakon profile.

    Evaluated on the quarter-band representative of u, given as for
    one_sided_gaps: the norm on its working grid, where it is Parseval
    exact, and the maximum at the N grid nodes, a lower bound on the true
    sup, so the reported slack is never spuriously negative.
    """
    uv, ux = band
    u = uv if uv.size == grid.n_points else samples
    dens = alpha**2 * ux * ux + uv * uv
    # the working grid's spacing: N/m is a power of two, so this is exact
    norm = np.sqrt(_quadrature(dens, grid.dx * (grid.n_points // uv.size)))
    return float(norm / np.sqrt(2.0 * alpha) - np.abs(u).max())


def random_band_limited(rng: np.random.Generator, grid: Grid, n_modes: int = 30,
                        max_mode: int = 80) -> tuple[np.ndarray, np.ndarray]:
    """(rfft row, samples), read-only, of a random smooth periodic field in
    the quarter band, unit amplitude up to round-off: n_modes random
    coefficients on the wavenumber bins 1..max_mode, damped by
    exp(-bin/(max_mode/2)) and divided by the peak of their samples, from
    one length-N irfft of the drawn bins; those samples, divided by the peak
    too, agree with the row's own irfft to round-off, not bit for bit.
    ValueError unless n_modes >= 1 and 1 <= max_mode <= N/4."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1, got {n_modes}")
    sp = grid.spectral
    if not 1 <= max_mode <= sp.quarter:
        raise ValueError(f"max_mode must lie in 1..N/4 = {sp.quarter}, got {max_mode}")
    coeffs = np.zeros(sp.xi.size, dtype=complex)
    modes = rng.integers(1, max_mode + 1, size=n_modes)
    coeffs[modes] = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    # the bins above max_mode hold zeros: scale and transform only the drawn band
    drawn = coeffs[: max_mode + 1]
    drawn *= np.exp(-np.arange(max_mode + 1) / (max_mode / 2.0))
    values = np.fft.irfft(drawn, n=sp.n)
    peak = np.abs(values).max()
    if peak > 0:
        drawn /= peak
        values /= peak
    coeffs.setflags(write=False)
    values.setflags(write=False)
    return coeffs, values


def peakon_witness_study(params: Parameters, resolutions) -> dict:
    """Sharpness study: the peakon exp(-|x|/alpha) - k attains equality in
    the minus one-sided inequality on x <= 0 (the peak y = 0).  The peak
    carries a slope jump, so the gap right at it shrinks only linearly in
    N, while on the equality region away from the kink (x <= -alpha/4)
    the gap converges at order ~2; both are reported per resolution
    (grids on [-20 alpha, 20 alpha)), with the fitted order between the
    first and the last resolution (NaN with fewer than two)."""
    levels = []
    exclusion = 0.25 * params.alpha
    for n in resolutions:
        grid = make_grid(20.0 * params.alpha, n)
        u = ic_preset("peakon_shifted", grid, params, c=1.0, y=0.0, k=params.k)
        band = grid.spectral.quarter_band(u.spectrum)
        gm, _ = one_sided_gaps(grid, u.values, band, params.alpha, params.k)
        x = grid.nodes
        ipk = int(np.argmin(np.abs(x)))
        region = x <= -exclusion
        levels.append(
            {
                "n_points": n,
                "gap_at_peak": float(gm[ipk]),
                "gap_equality_region": float(np.max(np.abs(gm[region]))),
                "min_gap": gap_minimum(gm, grid)["min_gap"],
                "sup_embedding_gap": sobolev_gap(grid, u.values, band, params.alpha),
            }
        )
    order = np.nan
    if len(levels) >= 2:
        g0 = abs(levels[0]["gap_equality_region"])
        g1 = abs(levels[-1]["gap_equality_region"])
        steps = np.log2(levels[-1]["n_points"] / levels[0]["n_points"])
        if g1 > 0 and steps > 0:
            order = float(np.log2(g0 / g1) / steps)
    return {
        "equality_region_excludes": f"|x - y| < {exclusion}",
        "levels": levels,
        "equality_region_order": order,
    }


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


def _margin(ux, u, params: Parameters):
    """The criterion margin alpha*u_x + |u + k| (scalars or arrays)."""
    return params.alpha * ux + np.abs(u + params.k)


def _min_margin(u0: Field, params: Parameters) -> tuple[float, float]:
    """(x0, margin) at the least criterion margin of u0: the node scan
    refined on the interpolant, where the margin's slope is
    alpha u'' + sign(u + k) u'."""
    sp = u0.grid.spectral
    u_hat = u0.spectrum
    margins = _margin(np.fft.irfft(sp.ik * u_hat, n=sp.n), u0.values, params)
    i = np.argmin(margins, keepdims=True)

    def target(rows):
        u, ux, uxx = rows
        return _margin(ux, u, params), params.alpha * uxx + np.sign(u + params.k) * ux

    rows = np.array([u_hat, sp.ik * u_hat, sp.ik**2 * u_hat])
    x, m, _ = sp.refine_min(rows, target, u0.grid.nodes[i], margins[i])
    return float(x[0]), float(m[0])


def _vacuum_point(u0: Field, rho0: Field, params: Parameters):
    """(x0, margin) at the vacuum point of least margin, or None.  Each
    discrete local minimum of rho~ is refined to its tangential minimum on
    the interpolant unless the node is nearer vacuum (where the
    interpolant undershoots -1 beside it); a vacuum point has
    |rho~ + 1| <= 1e-10.  Its margin comes from the samples if the node
    stays, else the interpolant."""
    grid = u0.grid
    sp = grid.spectral
    u, u_hat = u0.values, u0.spectrum
    rho, rho_hat = rho0.values, rho0.spectrum
    gap = np.abs(rho + 1.0)
    # within dx of a node the interpolant moves by at most dx (2/N) sum
    # |xi rho^|, so a node gap beyond that cannot refine to a vacuum point
    reach = 2.0 * grid.dx * np.sum(sp.xi * np.abs(rho_hat)) / grid.n_points
    low = gap - reach <= 1e-10
    i = np.flatnonzero(low & (rho <= np.roll(rho, 1)) & (rho <= np.roll(rho, -1)))

    def target(rows):  # bisect on the slope of rho~, compare the gaps
        return np.abs(rows[0] + 1.0), rows[1]

    rows = np.array([rho_hat, sp.ik * rho_hat])
    x, gap_x, moved = grid.nodes[i], gap[i], np.zeros(i.size, dtype=bool)
    far = gap_x > 0.0  # a node at exact vacuum stays: nothing is strictly better
    x[far], gap_x[far], moved[far] = sp.refine_min(rows, target, x[far], gap_x[far])
    vacuum = np.flatnonzero(gap_x <= 1e-10)
    if vacuum.size == 0:
        return None
    x, i, moved = x[vacuum], i[vacuum], moved[vacuum]
    uv, uxv = sp.values(np.array([u_hat, sp.ik * u_hat]), sp.basis(x))
    ux = np.fft.irfft(sp.ik * u_hat, n=sp.n)
    margins = np.where(moved, _margin(uxv, uv, params), _margin(ux[i], u[i], params))
    j = int(np.argmin(margins))
    return float(x[j]), float(margins[j])


def _time_bound(u0: Field, x0: float, params: Parameters) -> float:
    """2/sqrt(u0'(x0)^2 - (u0(x0) + k)^2/alpha^2) on the interpolant of u0;
    where a square overflows, the same bound with u0'(x0) factored out."""
    sp = u0.grid.spectral
    u_hat = u0.spectrum
    basis = sp.basis(x0)  # one matmul per row: a stacked one can differ in the last bit
    slope, value = (float(sp.values(c, basis)[0]) for c in (sp.ik * u_hat, u_hat))
    try:
        return 2.0 / np.sqrt(slope**2 - ((value + params.k) / params.alpha) ** 2)
    except OverflowError:  # Python floats raise where numpy would give inf
        ratio = (value + params.k) / (params.alpha * slope)
        return 2.0 / abs(slope) / np.sqrt(1.0 - ratio**2)


def check_criterion_dgh(u0: Field, params: Parameters) -> CriterionVerdict:
    """Local breaking criterion for the one-component equation:
    holds iff u0'(x0) < -|u0(x0) + k|/alpha at some point, in which case
    the breaking time is below 2/sqrt(u0'(x0)^2 - (u0(x0)+k)^2/alpha^2).

    A non-holding verdict is a valid result: the criterion is sufficient,
    not necessary.
    """
    x0, margin = _min_margin(u0, params)
    holds = margin < 0.0
    bound = _time_bound(u0, x0, params) if holds else None
    return CriterionVerdict(holds=holds, x0_best=x0, margin=margin, time_bound=bound)


def check_criterion_dgh2(u0: Field, rho0: Field, params: Parameters) -> CriterionVerdict:
    """Local breaking criterion for the two-component system (gamma = 0):
    requires rho~0(x0) = -1 and u0'(x0) < -|u0(x0) + c0/2|/alpha at a
    common point.  Without a vacuum point the verdict reports the least
    margin over the line, as the one-component criterion does.
    """
    if params.gamma != 0.0:
        raise ValueError(
            "the two-component criterion requires gamma = 0; "
            f"got gamma = {params.gamma}"
        )
    if rho0.grid != u0.grid:
        raise ValueError("u0 and rho0 must share one grid")
    point = _vacuum_point(u0, rho0, params)
    met = point is not None
    x0, margin = point if met else _min_margin(u0, params)
    holds = met and margin < 0.0
    bound = _time_bound(u0, x0, params) if holds else None
    return CriterionVerdict(holds, x0, margin, bound, rho_condition_met=met)
