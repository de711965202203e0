"""Checks the tests make along characteristic paths: the resolved window
of a path, the monotonicity of a signed log-magnitude series and the
weighted pair in linear form."""
import numpy as np

from dghlab.characteristics import CharacteristicPath, weighted_ab_log
from dghlab.core import Parameters


def resolved_count(path: CharacteristicPath, qx_floor: float = 0.1) -> int:
    """Number of leading pre-detection records along which grid sampling
    at the path is still meaningful.

    Once the flow map compresses by more than ~1/qx_floor the solution
    develops sub-cell structure around the path (the breaking cusp), and
    interpolated pointwise values there read discretization artifacts
    rather than the continuum fields; checks of pointwise identities are
    restricted to this window.
    """
    n = path.n_pre_detection
    ok = path.qx[:n] >= qx_floor
    if bool(np.all(ok)):
        return n
    return int(np.argmin(ok))


def monotone_violation(signs: np.ndarray, logs: np.ndarray, direction: str) -> float:
    """Largest normalized monotonicity violation of a signed log-magnitude
    series; <= tol means monotone within tolerance.

    For finite linear values the measure is (x_i - x_{i+1})/(1 + |x_i|)
    for direction='increasing' (mirrored for 'decreasing'); pairs beyond
    linear range are compared in the log domain, where monotonicity of the
    magnitude is equivalent as long as the sign agrees.
    """
    if direction not in ("increasing", "decreasing"):
        raise ValueError(direction)
    flip = 1.0 if direction == "increasing" else -1.0
    worst = -np.inf
    with np.errstate(over="ignore"):
        linear = signs * np.exp(logs)
    for i in range(len(logs) - 1):
        s0, s1 = flip * signs[i], flip * signs[i + 1]
        x0, x1 = flip * linear[i], flip * linear[i + 1]
        if np.isfinite(x0) and np.isfinite(x1):
            v = (x0 - x1) / (1.0 + abs(x0))
        elif s0 < s1:
            v = -np.inf  # sign stepped up: monotone regardless of magnitude
        elif s0 > s1:
            v = np.inf
        elif s0 > 0:  # both +inf territory: need log increase
            v = 1.0 - np.exp(min(logs[i + 1] - logs[i], 50.0))
        else:  # both large negative: need magnitude decrease
            v = np.exp(min(logs[i + 1] - logs[i], 50.0)) - 1.0
        worst = max(worst, v)
    return float(worst)


def weighted_ab(t, q, u, ux, params: Parameters):
    """The weighted pair (A, B) of weighted_ab_log in linear form; values
    may overflow to +-inf for large t*|k-lam|/alpha."""
    sa, la, sb, lb = weighted_ab_log(t, q, u, ux, params)
    with np.errstate(over="ignore"):
        return sa * np.exp(la), sb * np.exp(lb)
