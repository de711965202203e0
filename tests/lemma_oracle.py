"""The lemma gaps formed on all N grid nodes, the direct way the tests
check the working-grid gaps of dghlab.analysis against."""
import numpy as np

from dghlab import NonlocalOperator


def n_grid_band(u):
    """(u, u_x) at the N nodes of u's rfft row limited to bins <= N/4, one
    length-N irfft per row."""
    sp = u.grid.spectral
    row = np.array(u.spectrum)
    row[sp.quarter + 1 :] = 0.0
    return np.fft.irfft(row, n=sp.n), np.fft.irfft(sp.ik * row, n=sp.n)


def n_grid_gaps(u, p):
    """(minus gap, plus gap, Sobolev slack) of u at the parameters p, every
    quantity formed at the N nodes from n_grid_band: the one-sided gaps
    (p -+ alpha p_x) * (alpha^2/2 u_x^2 + u^2 + 2ku) - ((u+k)^2/2 - k^2)
    and ||u||_{H1,alpha}/sqrt(2 alpha) - max|u|."""
    uv, ux = n_grid_band(u)
    w = 0.5 * p.alpha**2 * ux * ux + uv * uv + 2.0 * p.k * uv
    rhs = 0.5 * (uv + p.k) ** 2 - p.k**2
    minus, plus = NonlocalOperator(u.grid, p.alpha).one_sided_convolutions(w)
    norm = np.sqrt(np.sum(uv * uv + p.alpha**2 * ux * ux) * u.grid.dx)
    return minus - rhs, plus - rhs, norm / np.sqrt(2.0 * p.alpha) - np.max(np.abs(uv))
