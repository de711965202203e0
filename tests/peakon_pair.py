"""The symmetric peakon-antipeakon pair at (gamma, c0) = (0, 0), an exact
solution with a known breaking time (Camassa & Holm, Phys. Rev. Lett. 71,
1993):

    u = p e^{-|x+q|/alpha} - p e^{-|x-q|/alpha},

with p^2 (1 - e^{-2q/alpha}) = c^2 kept, so
q' = -c sqrt(1 - e^{-2q/alpha}), solved by

    q(t) = alpha ln cosh(arccosh(e^{q0/alpha}) - c t/alpha),

and the peaks collide at T = alpha arccosh(e^{q0/alpha}) / c.
"""
import numpy as np


def collision_time(q0: float, c: float, alpha: float) -> float:
    """T, where q reaches 0."""
    return alpha * float(np.arccosh(np.exp(q0 / alpha))) / c


def pair_position(t, q0: float, c: float, alpha: float):
    """q(t), the right peak's position (the left one is at -q)."""
    return alpha * np.log(np.cosh(np.arccosh(np.exp(q0 / alpha)) - c * t / alpha))


def pair_values(x, t: float, q0: float, c: float, alpha: float) -> np.ndarray:
    """u(t) at the points x, for t before the collision."""
    q = pair_position(t, q0, c, alpha)
    p = c / np.sqrt(1.0 - np.exp(-2.0 * q / alpha))
    return p * np.exp(-np.abs(x + q) / alpha) - p * np.exp(-np.abs(x - q) / alpha)
