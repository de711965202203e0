"""The real-space Green kernel the tests check the Helmholtz operator
against."""
import numpy as np

from dghlab.core import Parameters


def green_kernel(x, params: Parameters):
    """Kernel p(x) = exp(-|x|/alpha)/(2*alpha) of the inverse Helmholtz
    operator; unit mass on the line."""
    a = params.alpha
    return np.exp(-np.abs(x) / a) / (2.0 * a)
