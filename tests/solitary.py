"""The smooth solitary wave of the (gamma, c0) family at k > 0, the exact
nonlinear solution the solver's tests measure it against.

With u = phi(x - c t), phi -> 0 at infinity and s = c - lam, applying
1 - alpha^2 d_xx to the transport form and integrating twice gives

    alpha^2 (s - phi) phi'^2 = phi^2 (s - 2k - phi),

so the crest is a = s - 2k, and the profile is smooth iff k > 0 (at k = 0
it is the peakon).  It decays like exp(-|x| sqrt(a/s)/alpha).
"""
import numpy as np
from scipy.integrate import solve_ivp

from dghlab.core import Grid, Parameters

_X0 = 1e-4  # where the integration leaves the crest series


def solitary_profile(a: float, params: Parameters, x_max: float):
    """phi(|x|) for |x| <= x_max, the profile of crest a centred at 0:
    phi' = -(phi/alpha) sqrt((a - phi)/(s - phi)) integrated with DOP853
    (rtol 1e-13, atol 1e-16) from the crest series phi = a - b x^2/2,
    b = a^2/(4 k alpha^2), at x = 1e-4."""
    alpha, s = params.alpha, a + 2.0 * params.k
    b = a * a / (4.0 * params.k * alpha**2)

    def rhs(_, phi):
        return -(phi / alpha) * np.sqrt((a - phi) / (s - phi))

    sol = solve_ivp(rhs, (_X0, x_max), [a - 0.5 * b * _X0**2], method="DOP853",
                    rtol=1e-13, atol=1e-16, dense_output=True)

    def phi(x):
        d = np.abs(np.asarray(x, dtype=float))
        near = d < _X0
        return np.where(near, a - 0.5 * b * d * d, sol.sol(np.where(near, _X0, d))[0])

    return phi


def solitary_wave(a: float, params: Parameters, grid: Grid, crest: float):
    """u(t): the samples on the grid at time t of the wave of crest a that
    starts at x = crest and moves at c = a + 2k + lam, taken on the
    periodic box by the distance to the crest modulo 2L; the images in the
    neighbouring periods are left out; they add of the order of phi(L)."""
    L = grid.half_length
    phi = solitary_profile(a, params, L)
    c = a + 2.0 * params.k + params.lam

    def u(t: float) -> np.ndarray:
        return phi((grid.nodes - crest - c * t + L) % (2.0 * L) - L)

    return u
