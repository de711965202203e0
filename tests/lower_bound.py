"""The energy's certified lower bound on the breaking time of a
one-component datum (Constantin & Escher, Acta Math. 181, 1998).

Along a characteristic u_x' = -u_x^2/2 + f, and f >= -K with

    K = (k^2 + E/alpha + 2|k| sqrt(E/alpha)) / alpha^2,

from (u^2 + 2ku)/alpha^2 >= -k^2/alpha^2, the kernel's sup 1/(2 alpha)
against the conserved E, its unit mass against 2ku, and the sharp
embedding max|u| <= sqrt(E/alpha).  So inf u_x stays above the solution
of y' = -y^2/2 - K from y(0) = m0 = inf u0_x, which reaches -M at

    T_lower(M) = (2/A) (arctan(M/A) - arctan(|m0|/A)),  A = sqrt(2K).
"""
import numpy as np

import dghlab as dg


def slope_infimum(u0: dg.Field) -> float:
    """inf u0_x: the node minimum refined on the interpolant, never above
    it, since a node minimum above the true infimum would make the bound
    unsafe."""
    sp = u0.grid.spectral
    ux = np.fft.irfft(sp.ik * u0.spectrum, n=sp.n)
    i = np.argmin(ux, keepdims=True)
    rows = np.array([sp.ik * u0.spectrum, sp.ik**2 * u0.spectrum])
    _, m0, _ = sp.refine_min(rows, lambda r: (r[0], r[1]), u0.grid.nodes[i], ux[i])
    return float(m0[0])


def time_lower_bound(u0: dg.Field, params: dg.Parameters, threshold: float) -> float:
    """T_lower(threshold) of the module docstring for the datum u0."""
    alpha, k = params.alpha, params.k
    e = dg.energy_E(dg.State(0.0, u0), params) / alpha
    a = np.sqrt(2.0 * (k * k + e + 2.0 * abs(k) * np.sqrt(e)) / alpha**2)
    m0 = slope_infimum(u0)
    return float(2.0 / a * (np.arctan(threshold / a) - np.arctan(abs(m0) / a)))
