"""The lemma gaps formed on all N grid nodes, the direct way the tests
check the working-grid gaps of dghlab.analysis against, and the
arguments those gap functions take, formed as dgh-lab lemmas forms them."""
import numpy as np

from dghlab import NonlocalOperator


def gap_args(grid, row, samples):
    """(grid, samples, quarter band) of the field with rfft row ``row`` and
    samples ``samples``, the band Spectral.quarter_band of the row."""
    return grid, samples, grid.spectral.quarter_band(row)


def field_gap_args(u):
    """gap_args of the dghlab Field u."""
    return gap_args(u.grid, u.spectrum, u.values)


def n_grid_band(grid, row):
    """(u, u_x) at the N nodes of the rfft row ``row`` limited to bins
    <= N/4, one length-N irfft per row."""
    sp = grid.spectral
    row = np.array(row)
    row[sp.quarter + 1 :] = 0.0
    return np.fft.irfft(row, n=sp.n), np.fft.irfft(sp.ik * row, n=sp.n)


def n_grid_gaps(grid, row, p):
    """(minus gap, plus gap, Sobolev slack) of the field with rfft row
    ``row`` at the parameters p, every quantity formed at the N nodes from
    n_grid_band: the one-sided gaps
    (p -+ alpha p_x) * (alpha^2/2 u_x^2 + u^2 + 2ku) - ((u+k)^2/2 - k^2)
    and ||u||_{H1,alpha}/sqrt(2 alpha) - max|u|."""
    uv, ux = n_grid_band(grid, row)
    w = 0.5 * p.alpha**2 * ux * ux + uv * uv + 2.0 * p.k * uv
    rhs = 0.5 * (uv + p.k) ** 2 - p.k**2
    minus, plus = NonlocalOperator(grid, p.alpha).one_sided_convolutions(w)
    norm = np.sqrt(np.sum(uv * uv + p.alpha**2 * ux * ux) * grid.dx)
    return minus - rhs, plus - rhs, norm / np.sqrt(2.0 * p.alpha) - np.max(np.abs(uv))
